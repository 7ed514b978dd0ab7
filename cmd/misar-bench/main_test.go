package main

import (
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	out := `
goos: linux
BenchmarkFigSpeedup-8             1   123456789 ns/op   1.440 geomean-speedup   1024 B/op   12 allocs/op
BenchmarkEngineEvents-8      200000         418 ns/op      0 B/op    0 allocs/op
PASS
`
	rs := parse(out)
	if len(rs) != 2 {
		t.Fatalf("parsed %d results, want 2", len(rs))
	}
	fig := rs[0]
	if fig.Name != "FigSpeedup" || fig.NsPerOp != 123456789 ||
		fig.AllocsPerOp != 12 || fig.Extra["geomean-speedup"] != 1.44 {
		t.Fatalf("bad parse: %+v", fig)
	}
	if eng := rs[1]; eng.NsPerOp != 418 || eng.AllocsPerOp != 0 {
		t.Fatalf("bad parse: %+v", eng)
	}
}

func TestRegressions(t *testing.T) {
	prev := []result{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "B", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "Gone", NsPerOp: 500},
	}
	cur := []result{
		{Name: "A", NsPerOp: 1100, AllocsPerOp: 10},  // +10%: within limit
		{Name: "B", NsPerOp: 1200, AllocsPerOp: 0},   // +20%: over limit
		{Name: "New", NsPerOp: 9999, AllocsPerOp: 1}, // new benchmark: passes
	}
	bad := regressions(cur, prev, 15)
	if len(bad) != 2 {
		t.Fatalf("got %d findings, want 2 (B slowdown, Gone dropped): %v", len(bad), bad)
	}
	joined := strings.Join(bad, "\n")
	if !strings.Contains(joined, "B:") || !strings.Contains(joined, "Gone:") {
		t.Fatalf("findings must name B and Gone: %v", bad)
	}
	if strings.Contains(joined, "A:") {
		t.Fatalf("A is within the limit and must pass: %v", bad)
	}
}

func TestRegressionsZeroAllocClaim(t *testing.T) {
	prev := []result{{Name: "Kernel", NsPerOp: 100, AllocsPerOp: 0}}
	cur := []result{{Name: "Kernel", NsPerOp: 100, AllocsPerOp: 2}}
	bad := regressions(cur, prev, 15)
	if len(bad) != 1 || !strings.Contains(bad[0], "zero-alloc") {
		t.Fatalf("new allocations on a zero-alloc benchmark must fail: %v", bad)
	}
	if bad := regressions(prev, prev, 15); len(bad) != 0 {
		t.Fatalf("identical reports must pass: %v", bad)
	}
}

// The flight-overhead gate compares medians of repeated runs: one outlier
// run (here a cold first Bare run) must not decide it either way.
func TestMedianResult(t *testing.T) {
	out := `
BenchmarkEngineChurnBare-2     	 2000000	       197.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineChurnBare-2     	 2000000	       115.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineChurnBare-2     	 2000000	       109.4 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineChurnBare-2     	 2000000	       111.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineChurnBare-2     	 2000000	       112.0 ns/op	       8 B/op	       1 allocs/op
BenchmarkEngineChurnFlight-2   	 2000000	       108.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineChurnFlight-2   	 2000000	       116.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineChurnFlight-2   	 2000000	       114.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineChurnFlight-2   	 2000000	       160.0 ns/op	       0 B/op	       0 allocs/op
`
	rs := parse(out)
	bare, bareNs, ok := medianResult(rs, "EngineChurnBare")
	if !ok || bare.NsPerOp != 112.0 || len(bareNs) != 5 || bareNs[0] != 197.3 {
		t.Fatalf("bare median %+v, samples %v", bare, bareNs)
	}
	if bare.AllocsPerOp != 1 || bare.BytesPerOp != 8 {
		t.Fatalf("an allocation in any run must survive the fold: %+v", bare)
	}
	flight, flightNs, ok := medianResult(rs, "EngineChurnFlight")
	if !ok || flight.NsPerOp != 115.15 || len(flightNs) != 4 {
		t.Fatalf("flight median %+v (even count averages the middle two), samples %v", flight, flightNs)
	}
	if _, _, ok := medianResult(rs, "Missing"); ok {
		t.Fatal("medianResult found a benchmark that never ran")
	}
}
