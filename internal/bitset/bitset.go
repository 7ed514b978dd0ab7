// Package bitset provides the fixed-capacity core bit vectors the machine
// keeps per synchronization entry and per directory line. The paper's 16/64
// evaluation fits in one machine word; scaling the sharded kernel to 256 and
// 1024 tiles does not, so the HWQueue and sharer vectors hold a small word
// slice instead. Capacity is fixed at construction (one machine has one tile
// count) and every operation is allocation-free except New and Clone.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a fixed-capacity bit vector. The zero value is an empty set of
// capacity zero; build real sets with New so Add never grows the backing
// array (entries are recycled across a whole run and must not reallocate).
type Set []uint64

// New returns an empty set able to hold members in [0, n).
func New(n int) Set {
	return make(Set, (n+63)/64)
}

// Add inserts i. Capacity is rounded up to whole 64-bit words, so an index
// past the construction capacity but inside the last word is stored (New(65)
// accepts Add(100)); only an index past the last word panics. Callers keep
// indices below the configured tile count.
func (s Set) Add(i int) { s[i>>6] |= 1 << uint(i&63) }

// Remove deletes i if present.
func (s Set) Remove(i int) { s[i>>6] &^= 1 << uint(i&63) }

// Has reports whether i is a member. Out-of-capacity (and negative) indices
// are reported absent, so callers may probe with sentinel cores like -1.
func (s Set) Has(i int) bool {
	if i < 0 || i>>6 >= len(s) {
		return false
	}
	return s[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of members.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes every member, keeping the capacity.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Clone returns an independent copy. Snapshot paths use it so published
// copies never alias the live vector the slice keeps mutating.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Next returns the smallest member >= from, or -1 if none. Scans by word,
// so sparse sets over many tiles cost O(words), not O(tiles).
func (s Set) Next(from int) int {
	if from < 0 {
		from = 0
	}
	for w := from >> 6; w < len(s); w++ {
		word := s[w]
		if w == from>>6 {
			word &^= (1 << uint(from&63)) - 1
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// ForEach calls fn for every member in ascending order.
func (s Set) ForEach(fn func(int)) {
	for w, word := range s {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(w<<6 + b)
			word &^= 1 << uint(b)
		}
	}
}

// String renders the members compactly for diagnostics: "{3,17,40}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
