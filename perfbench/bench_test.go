package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"misar/internal/trace"
)

func TestScaleProgramFollowsSeed(t *testing.T) {
	a, b, c := newScaleProgram(7), newScaleProgram(7), newScaleProgram(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different scale1024 programs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same scale1024 program")
	}
	for _, phase := range a.compute {
		for _, v := range phase {
			if v < 100 || v > 196 {
				t.Fatalf("compute length %d outside [100, 196]", v)
			}
		}
	}
}

func TestServeStreamFollowsSeed(t *testing.T) {
	a, b, c := newServeStream(7), newServeStream(7), newServeStream(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different serve streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same serve stream")
	}
	if len(a) != serveStreamLen {
		t.Fatalf("stream has %d requests, want %d", len(a), serveStreamLen)
	}
	u := distinct(a)
	if len(u) == len(a) || len(u) > 24*len(serveConfigs)*len(serveTiles) {
		t.Fatalf("%d distinct jobs in %d draws: the stream must repeat jobs from a 96-job space", len(u), len(a))
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		p, v  float64
		valid bool
	}{
		{19, 0, 0, false},
		{20, 50, 10, true},
		{100, 90, 90, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		p, v, ok := tail(seq(c.n))
		if ok != c.valid || p != c.p || v != c.v {
			t.Errorf("tail of %d samples = p%g %g %v, want p%g %g %v", c.n, p, v, ok, c.p, c.v, c.valid)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < tailMinBeyond {
				t.Errorf("p%g of %d samples leaves %d beyond it", p, c.n, beyond)
			}
		}
	}
}

func TestDigestFlagsChangedResult(t *testing.T) {
	results := func(cycles ...int) string {
		d := newDigest()
		for i, c := range cycles {
			b, _ := json.Marshal(map[string]int{"cycles": c})
			d.add(string(rune('a'+i)), b)
		}
		return d.sum()
	}
	same := []string{results(100, 200), results(100, 200), results(100, 200)}
	if n := digestMismatches(same); n != 0 {
		t.Fatalf("identical results flagged %d mismatches", n)
	}
	moved := []string{results(100, 200), results(100, 201), results(100, 200)}
	if n := digestMismatches(moved); n != 1 {
		t.Fatalf("one moved cycle flagged %d mismatches, want 1", n)
	}
	// Framing: moving bytes across a field boundary changes the digest.
	x, y := newDigest(), newDigest()
	x.add("ab", []byte("c"))
	y.add("a", []byte("bc"))
	if x.sum() == y.sum() {
		t.Fatal("digest does not frame its fields")
	}
}

// TestFigureJobsMatchFigures checks that the job lists name exactly the
// simulations the figures submit: collecting them after the figures must
// be all memo hits, and every simulation must be listed.
func TestFigureJobsMatchFigures(t *testing.T) {
	for _, c := range []struct {
		name  string
		figs  []figure
		tiles int
	}{{"paper", paperFigures, 4}, {"contention", contentionFigures, 4}} {
		fr := runFigures(c.figs, c.tiles, nil)
		if len(fr.errs) > 0 {
			t.Fatalf("%s: %v", c.name, fr.errs)
		}
		if fr.extraSims != 0 {
			t.Errorf("%s: the job lists add %d simulations the figures never ran", c.name, fr.extraSims)
		}
		unique := map[any]bool{}
		for _, r := range fr.runs {
			unique[r] = true
		}
		if len(unique) != fr.runner.Unique {
			t.Errorf("%s: job lists cover %d of the figures' %d simulations", c.name, len(unique), fr.runner.Unique)
		}
		if _, failed := fr.digestAndCheck(); failed != 0 {
			t.Errorf("%s: %d failed simulations", c.name, failed)
		}
	}
}

func TestSelfTimeSubtractsInnerLanes(t *testing.T) {
	spans := []trace.Span{
		{Trace: "t", Proc: "bench", Name: "figure", Start: 0, Dur: 100},
		{Trace: "t", Proc: "sim", Name: "sim.run", Start: 10, Dur: 50},
		{Trace: "t", Proc: "sim", Name: "sim.run", Start: 30, Dur: 50}, // overlaps: union is 70
		{Trace: "u", Proc: "sim", Name: "sim.run", Start: 0, Dur: 100}, // another trace
	}
	lt := selfTimes(spans)
	for lane, want := range map[string]float64{"bench": 0.030, "sim": 0.200} {
		if got := lt[lane].self; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s self time = %g ms, want %g", lane, got, want)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host) string {
		b, _ := json.Marshal(resultFile{Schema: resultSchema, Host: h, Workload: "figs16", Seed: 1,
			Metrics: map[string]metric{"wall_s": {6, "s"}}})
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := host{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0"}
	other := base
	other.NProc = 8
	a, b, c := write("a.json", base), write("b.json", base), write("c.json", other)
	var out, errb bytes.Buffer
	if code := compareMain([]string{a, b}, &out, &errb); code != 0 {
		t.Fatalf("same host: exit %d: %s", code, errb.String())
	}
	if code := compareMain([]string{a, c}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "different hosts") {
		t.Fatalf("different hosts: exit %d, stderr %q", code, errb.String())
	}
}
