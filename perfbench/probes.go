package main

import (
	"math/rand/v2"
	"time"

	"misar/internal/cpu"
	"misar/internal/machine"
	"misar/internal/noc"
	"misar/internal/sim"
)

// probes are isolated drives of single layers, each timed on its own so a
// per-layer number does not depend on what the workload mixes around it.
type probes struct {
	nsPerEvent  float64 // sim.Engine AfterCall/RunUntil with small fixed delays
	nsPerSwitch float64 // one-tile machine running an Env.Compute(1) loop
	nsPerFlit   float64 // 32x32 mesh under uniform Post traffic
}

// probeTrials is how many times each probe runs; the median is reported.
const probeTrials = 3

func runProbes() probes {
	return probes{
		nsPerEvent:  medianOf(probeTrials, probeEngine),
		nsPerSwitch: medianOf(probeTrials, probeSwitch),
		nsPerFlit:   medianOf(probeTrials, probeNoC),
	}
}

func medianOf(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// probeEngine keeps probeLive events pending — each handler reschedules
// itself after one of the workloads' small fixed delays (link 1, router 2,
// L1/directory 3–4 cycles) — and reports host ns per fired event.
func probeEngine() float64 {
	const probeLive, events = 64, 1 << 21
	e := sim.NewEngine()
	delays := [...]sim.Time{1, 2, 3, 2, 1, 4, 2, 3}
	var fired int
	var h sim.Handler
	h = func(arg any) {
		i := arg.(int)
		fired++
		if fired <= events-probeLive {
			e.AfterCall(delays[i%len(delays)], h, i+1)
		}
	}
	for i := 0; i < probeLive; i++ {
		e.AfterCall(delays[i%len(delays)], h, i)
	}
	start := time.Now()
	e.RunUntil(sim.Time(1) << 40)
	return float64(time.Since(start).Nanoseconds()) / float64(e.Fired())
}

// probeSwitch runs one thread on a one-tile machine through a Compute(1)
// loop: every iteration hands control from the thread to the kernel and
// back. Reports host ns per iteration.
func probeSwitch() float64 {
	const iters = 200_000
	m := machine.New(machine.Default(1))
	m.SpawnAll(1, func(_ int, e cpu.Env) {
		for i := 0; i < iters; i++ {
			e.Compute(1)
		}
	})
	start := time.Now()
	if _, err := m.Run(sim.Time(1) << 40); err != nil {
		panic(err)
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

// probeNoC injects uniform random traffic (4-flit messages) into an
// isolated 32x32 mesh, a batch every few cycles, and reports host ns per
// delivered flit. The traffic pattern is fixed, not seeded by the workload.
func probeNoC() float64 {
	const side, rounds, perRound, gap = 32, 400, 64, 8
	e := sim.NewEngine()
	n := noc.New(e, noc.DefaultConfig(side, side))
	for t := 0; t < side*side; t++ {
		n.Attach(t, func(*noc.Message) {})
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for r := 0; r < rounds; r++ {
		e.At(sim.Time(r*gap), func() {
			for k := 0; k < perRound; k++ {
				n.Post(rng.IntN(side*side), rng.IntN(side*side), 64, nil)
			}
		})
	}
	start := time.Now()
	e.RunUntil(sim.Time(1) << 40)
	return float64(time.Since(start).Nanoseconds()) / float64(n.Stats().Flits)
}
