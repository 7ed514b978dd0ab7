package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"misar/internal/cpu"
	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/sim"
	"misar/internal/syncrt"
)

const (
	scaleTiles  = 1024 // a 32x32 mesh
	scalePhases = 3
	// scaleDeadline bounds one run; a few barrier phases finish far below
	// it, so reaching it means the machine hung.
	scaleDeadline = sim.Time(1) << 40
)

// scaleProgram is scale1024's input: per phase, each tile's compute length
// in cycles, drawn from the workload seed. The program gets only this table.
type scaleProgram struct {
	compute [scalePhases][scaleTiles]uint64
}

func newScaleProgram(seed uint64) *scaleProgram {
	rng := rand.New(rand.NewPCG(seed, 0x5ca1e1024))
	p := &scaleProgram{}
	for ph := range p.compute {
		for t := range p.compute[ph] {
			p.compute[ph][t] = 100 + rng.Uint64N(97)
		}
	}
	return p
}

// minCycles is a lower bound on the program's completion time: every phase
// lasts at least as long as its slowest tile's compute.
func (p *scaleProgram) minCycles() sim.Time {
	var total sim.Time
	for _, phase := range p.compute {
		var slowest uint64
		for _, c := range phase {
			slowest = max(slowest, c)
		}
		total += sim.Time(slowest)
	}
	return total
}

// build constructs the 1024-tile MSA/OMU-2 machine on the given number of
// shards and spawns one thread per tile running the phases, each closed by
// the combining-tree software barrier (MCS-tree library: the MSA sits idle).
func (p *scaleProgram) build(shards int, tr *tracer) *machine.Machine {
	sp := tr.span(fmt.Sprintf("machine.build k%d", shards))
	defer sp.End()
	cfg := machine.MSAOMU(scaleTiles, 2)
	cfg.Shards = shards
	m := machine.New(cfg)
	arena := syncrt.NewArena(0x2000000)
	bar := arena.Barrier(scaleTiles)
	qnodes := make([]memory.Addr, scaleTiles)
	for i := range qnodes {
		qnodes[i] = arena.QNode()
	}
	lib := syncrt.MCSTreeLib()
	m.SpawnAll(scaleTiles, func(tid int, e cpu.Env) {
		rt := lib.Bind(e, qnodes[tid])
		for ph := range p.compute {
			e.Compute(p.compute[ph][tid])
			rt.Wait(bar)
		}
	})
	return m
}

// scaleRun is one k1+k2 repetition.
type scaleRun struct {
	k1Wall, k2Wall time.Duration
	k1End, k2End   sim.Time
	k1Events       uint64
	k2Events       uint64
}

func (s scaleRun) digest() string {
	d := newDigest()
	d.add("k1", []byte(fmt.Sprintf("end=%d events=%d", s.k1End, s.k1Events)))
	d.add("k2", []byte(fmt.Sprintf("end=%d events=%d", s.k2End, s.k2Events)))
	return d.sum()
}

// runScale runs the program on the serial kernel, then on two shards.
func runScale(p *scaleProgram, tr *tracer) (scaleRun, error) {
	var s scaleRun
	m1 := p.build(1, tr)
	sp := tr.span("machine.run k1")
	start := time.Now()
	end, err := m1.Run(scaleDeadline)
	s.k1Wall = time.Since(start)
	sp.End()
	if err != nil {
		return s, fmt.Errorf("k1: %w", err)
	}
	s.k1End, s.k1Events = end, m1.Engine.Fired()
	if tr != nil {
		tr.obs.tot.add(m1)
		tr.obs.runNS = s.k1Wall.Nanoseconds()
	}

	m2 := p.build(2, tr)
	sp = tr.span("machine.run k2")
	start = time.Now()
	end, err = m2.Run(scaleDeadline)
	s.k2Wall = time.Since(start)
	sp.End()
	if err != nil {
		return s, fmt.Errorf("k2: %w", err)
	}
	s.k2End, s.k2Events = end, m2.Group.Fired()
	if tr != nil {
		tr.obs.shardEvents = m2.Group.Fired()
		tr.obs.shardWindows = m2.Group.Windows()
		tr.obs.shardPosts = m2.Group.Posted()
	}
	for _, e := range []sim.Time{s.k1End, s.k2End} {
		if e < p.minCycles() {
			return s, fmt.Errorf("finished at cycle %d, before the slowest tiles' compute (%d cycles)", e, p.minCycles())
		}
	}
	return s, nil
}

// scaleSession runs scale1024 for one seed.
type scaleSession struct {
	prog   *scaleProgram
	ratios []float64 // k1 wall / k2 wall per untraced repetition
	last   scaleRun
}

// setup times machine.New+SpawnAll of the serial 1024-tile machine.
func (s *scaleSession) setup() (time.Duration, error) {
	start := time.Now()
	s.prog.build(1, nil)
	return time.Since(start), nil
}

func (s *scaleSession) rep(tr *tracer) repResult {
	sr, err := runScale(s.prog, tr)
	if err != nil {
		return repResult{wall: sr.k1Wall, digest: "error: " + err.Error(), attempted: 2, failed: 1, errs: []error{err}}
	}
	if tr == nil {
		s.ratios = append(s.ratios, sr.k1Wall.Seconds()/sr.k2Wall.Seconds())
		s.last = sr
	}
	return repResult{wall: sr.k1Wall, digest: sr.digest(), attempted: 2}
}

func (s *scaleSession) metrics() (map[string]metric, []string) {
	return map[string]metric{"shard_speedup": {median(s.ratios), "x"}},
		[]string{
			"wall_s is the serial (k1) run; shard_speedup is k1 wall over k2 wall, median over repetitions",
			fmt.Sprintf("k1: %d cycles, %d events; k2: %d cycles, %d events", s.last.k1End, s.last.k1Events, s.last.k2End, s.last.k2Events),
		}
}
