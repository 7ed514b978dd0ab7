package machine_test

// Acceptance test for the always-on flight recorder: a deadlocked run's
// LivenessError must carry a non-empty flight dump whose trailing events
// agree with the watchdog's wait-for-graph diagnosis — the last LOCK request
// each blocked thread sent is the very address the diagnosis says it is
// waiting on, and no grant for it ever went back out.

import (
	"errors"
	"testing"

	"misar/internal/cpu"
	"misar/internal/isa"
	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/obs"
	"misar/internal/syncrt"
)

// runABBADeadlock wedges two threads in a classic lock-order inversion and
// returns the resulting liveness error.
func runABBADeadlock(t *testing.T) error {
	t.Helper()
	const tiles = 4
	cfg := machine.MSAOMU(tiles, 2)
	cfg.Invariants = true
	m := machine.New(cfg)
	arena := syncrt.NewArena(0x100000)
	lib := syncrt.HWLib()

	lockA := syncrt.Mutex{Addr: lineWithHome(arena, tiles, 0)}
	lockB := syncrt.Mutex{Addr: lineWithHome(arena, tiles, 1)}
	order := [][2]syncrt.Mutex{{lockA, lockB}, {lockB, lockA}}
	for i := 0; i < 2; i++ {
		i := i
		th := m.Complex.Spawn(i, func(e cpu.Env) {
			rt := lib.Bind(e, arena.QNode())
			rt.Lock(order[i][0])
			e.Compute(2000)
			rt.Lock(order[i][1]) // never granted
			rt.Unlock(order[i][1])
			rt.Unlock(order[i][0])
		})
		m.Complex.Start(th, i, 0)
	}
	_, err := m.Run(1_000_000)
	if err == nil {
		t.Fatal("ABBA scenario completed cleanly; the wedge did not happen")
	}
	return err
}

func TestFlightDumpMatchesWatchdogDiagnosis(t *testing.T) {
	err := runABBADeadlock(t)
	var le *machine.LivenessError
	if !errors.As(err, &le) {
		t.Fatalf("want *machine.LivenessError, got %T: %v", err, err)
	}
	flight := machine.FlightOf(err)
	if len(flight) == 0 {
		t.Fatal("liveness error carries an empty flight dump")
	}
	if le.Diag == nil || len(le.Diag.Blocked) == 0 {
		t.Fatal("no watchdog diagnosis to cross-check against")
	}

	// The dump must be in simulated-time order (the ring unrolls oldest
	// first).
	for i := 1; i < len(flight); i++ {
		if flight[i].At < flight[i-1].At {
			t.Fatalf("flight dump out of order at %d: %v after %v", i, flight[i], flight[i-1])
		}
	}

	// Agreement, per blocked thread: the last MSA request this core sent is
	// a LOCK for exactly the address the watchdog says the thread is
	// waiting on, and no successful response for it ever followed.
	for _, td := range le.Diag.Blocked {
		if td.OutAddr == 0 || td.Core < 0 {
			continue
		}
		lastReq := -1
		for i, ev := range flight {
			if ev.Kind == obs.FMsaReq && int(ev.Core) == td.Core {
				lastReq = i
			}
		}
		if lastReq < 0 {
			t.Errorf("thread %d: no MSA request from core %d in the flight dump", td.ID, td.Core)
			continue
		}
		req := flight[lastReq]
		if req.Addr != td.OutAddr {
			t.Errorf("thread %d: last flight request is for %#x, diagnosis says waiting on %#x",
				td.ID, uint64(req.Addr), uint64(td.OutAddr))
		}
		if op := isa.SyncOp(req.Arg); op != isa.OpLock {
			t.Errorf("thread %d: last flight request is %v, want LOCK", td.ID, op)
		}
		for _, ev := range flight[lastReq:] {
			if ev.Kind == obs.FMsaResp && int(ev.Core) == td.Core && ev.Addr == td.OutAddr &&
				isa.Result(ev.Arg&0xff) == isa.Success {
				t.Errorf("thread %d: flight shows a grant for %#x after the supposedly blocked request",
					td.ID, uint64(td.OutAddr))
			}
		}
	}

	// Every wait-for edge's lock must have protocol history in the dump.
	for _, edge := range le.Diag.Edges {
		seen := false
		for _, ev := range flight {
			if ev.Addr == edge.Addr {
				seen = true
				break
			}
		}
		if !seen {
			t.Errorf("wait-for edge lock %#x absent from the flight dump", uint64(edge.Addr))
		}
	}
}

// TestFlightRecorderAlwaysOn checks a healthy run records flight events too
// (the recorder is not failure-gated), from the cores as well as the slices
// and the coherence fabric.
func TestFlightRecorderAlwaysOn(t *testing.T) {
	const tiles = 4
	cfg := machine.MSAOMU(tiles, 2)
	m := machine.New(cfg)
	arena := syncrt.NewArena(0x100000)
	lib := syncrt.HWLib()
	lock := syncrt.Mutex{Addr: lineWithHome(arena, tiles, 0)}
	for i := 0; i < 2; i++ {
		th := m.Complex.Spawn(i, func(e cpu.Env) {
			rt := lib.Bind(e, arena.QNode())
			rt.Lock(lock)
			e.Compute(100)
			rt.Unlock(lock)
		})
		m.Complex.Start(th, i, 0)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	evs := m.FlightEvents()
	if len(evs) == 0 {
		t.Fatal("clean run recorded no flight events")
	}
	var reqs, cohs, issues, dones int
	for _, ev := range evs {
		switch ev.Kind {
		case obs.FMsaReq:
			reqs++
		case obs.FCoh:
			cohs++
		case obs.FIssue:
			issues++
		case obs.FDone:
			dones++
		}
	}
	if reqs == 0 {
		t.Error("no MSA requests in the flight ring")
	}
	if cohs == 0 {
		t.Error("no coherence deliveries in the flight ring")
	}
	if issues == 0 || dones == 0 {
		t.Errorf("core sync instructions missing from the flight ring: issue=%d done=%d", issues, dones)
	}
}

// TestEveryDoneHasItsResponse: every MSA-served instruction a core completes
// was answered through the slice's one response path, so each FDone is
// preceded by an FMsaResp for the same core, address, op and result. Locks
// here are handed off under contention, so the run exercises the hardware
// UNLOCK success replies (with and without ClearHWSync).
func TestEveryDoneHasItsResponse(t *testing.T) {
	const tiles = 4
	m := machine.New(machine.MSAOMU(tiles, 2))
	m.ResizeFlight(1<<16, nil)
	arena := syncrt.NewArena(0x100000)
	locks := []syncrt.Mutex{arena.Mutex(), arena.Mutex()}
	qnodes := make([]memory.Addr, tiles)
	for i := range qnodes {
		qnodes[i] = arena.QNode()
	}
	lib := syncrt.HWLib()
	m.SpawnAll(tiles, func(tid int, e cpu.Env) {
		rt := lib.Bind(e, qnodes[tid])
		for i := 0; i < 20; i++ {
			l := locks[(tid+i)%len(locks)]
			rt.Lock(l)
			e.Compute(30)
			rt.Unlock(l)
			e.Compute(uint64(5 + tid))
		}
	})
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	type key struct {
		core int16
		addr memory.Addr
		arg  uint32
	}
	outstanding := map[key]int{}
	var dones, unlocks int
	for _, ev := range m.FlightEvents() {
		k := key{ev.Core, ev.Addr, ev.Arg}
		switch ev.Kind {
		case obs.FMsaResp:
			outstanding[k]++
		case obs.FDone:
			dones++
			if isa.SyncOp(ev.Arg>>8) == isa.OpUnlock && isa.Result(ev.Arg&0xff) == isa.Success {
				unlocks++
			}
			if outstanding[k] == 0 {
				t.Fatalf("%v has no preceding msa-resp", ev)
			}
			outstanding[k]--
		}
	}
	if dones == 0 || unlocks == 0 {
		t.Fatalf("run completed %d MSA ops, %d hardware unlocks; want both > 0", dones, unlocks)
	}
}
