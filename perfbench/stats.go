package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailMinBeyond is the number of samples a tail percentile must leave above
// it: with fewer, the "tail" is one or two outliers, not a distribution.
const tailMinBeyond = 10

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = func() []float64 {
	l := []float64{99.9}
	for p := 99; p >= 50; p-- {
		l = append(l, float64(p))
	}
	return l
}()

// tail reports the highest percentile of tailLadder that still has at least
// tailMinBeyond samples strictly beyond its nearest rank, and the sample at
// that rank. ok is false when even the median leaves fewer than
// tailMinBeyond samples beyond it (fewer than 20 samples).
func tail(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		// Nearest rank; the epsilon keeps 99.9% of 10000 at 9990, not 9991.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= tailMinBeyond {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// digest hashes a workload's simulated results, in a fixed order, into one
// output_digest. Two runs with equal digests produced the same simulated
// cycles, coverages and reports; any moved cycle changes the digest.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// add appends one labelled result. Lengths are framed so that moving bytes
// between adjacent fields cannot produce the same hash.
func (d *digest) add(label string, payload []byte) {
	var n [8]byte
	for _, b := range [][]byte{[]byte(label), payload} {
		l := uint64(len(b))
		for i := range n {
			n[i] = byte(l >> (8 * i))
		}
		d.h.Write(n[:])
		d.h.Write(b)
	}
}

func (d *digest) sum() string { return "sha256:" + hex.EncodeToString(d.h.Sum(nil)) }

// digestMismatches counts the repetitions whose digest differs from the
// first repetition's: each one is a simulated result that changed between
// two runs of the same inputs in the same process.
func digestMismatches(digests []string) int {
	n := 0
	for i, d := range digests {
		if i == 0 {
			continue
		}
		if d != digests[0] {
			n++
		}
	}
	return n
}
