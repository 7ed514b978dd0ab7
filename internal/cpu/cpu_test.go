package cpu_test

import (
	"strings"
	"testing"

	"misar/internal/cpu"
	"misar/internal/isa"
	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/sim"
)

const deadline = sim.Time(100_000_000)

func newMachine(tiles int, mode cpu.Mode) *machine.Machine {
	cfg := machine.Default(tiles)
	cfg.CPU.Mode = mode
	if mode != cpu.ModeMSA {
		cfg.CPU.HWSyncOpt = false
	}
	return machine.New(cfg)
}

func TestComputeAdvancesTime(t *testing.T) {
	m := newMachine(1, cpu.ModeAlwaysFail)
	var at sim.Time
	m.SpawnAll(1, func(tid int, e cpu.Env) {
		e.Compute(123)
		at = e.Now()
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	if at != 123 {
		t.Fatalf("Now after Compute(123) = %d", at)
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	m := newMachine(1, cpu.ModeAlwaysFail)
	var at sim.Time
	m.SpawnAll(1, func(tid int, e cpu.Env) {
		e.Compute(0)
		at = e.Now()
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Fatalf("Compute(0) advanced time to %d", at)
	}
}

func TestMemoryOpsThroughEnv(t *testing.T) {
	m := newMachine(2, cpu.ModeAlwaysFail)
	var loaded, old, swapped uint64
	var casOK, casFail bool
	m.SpawnAll(1, func(tid int, e cpu.Env) {
		e.Store(0x1000, 7)
		loaded = e.Load(0x1000)
		old = e.FetchAdd(0x1000, 3)
		swapped = e.Swap(0x1000, 99)
		casOK = e.CAS(0x1000, 99, 5)
		casFail = e.CAS(0x1000, 99, 6)
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	if loaded != 7 || old != 7 || swapped != 10 || !casOK || casFail {
		t.Fatalf("loaded=%d old=%d swapped=%d casOK=%v casFail=%v",
			loaded, old, swapped, casOK, casFail)
	}
	if m.Store.Load(0x1000) != 5 {
		t.Fatalf("final = %d", m.Store.Load(0x1000))
	}
}

func TestAlwaysFailMode(t *testing.T) {
	m := newMachine(2, cpu.ModeAlwaysFail)
	var lockRes, finishRes isa.Result
	m.SpawnAll(1, func(tid int, e cpu.Env) {
		lockRes = e.Sync(isa.OpLock, 0x2000, 0, 0)
		finishRes = e.Sync(isa.OpFinish, 0x2000, 0, 0)
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	if lockRes != isa.Fail {
		t.Fatalf("MSA-0 LOCK = %v, want FAIL", lockRes)
	}
	if finishRes != isa.Success {
		t.Fatalf("MSA-0 FINISH = %v, want SUCCESS (pure notification)", finishRes)
	}
	// No messages may have been sent for sync ops.
	if n := m.Net.Stats().Messages; n != 0 {
		t.Fatalf("MSA-0 sent %d messages", n)
	}
}

func TestIdealLockSemantics(t *testing.T) {
	m := newMachine(4, cpu.ModeIdeal)
	const iters = 10
	counter := memory.Addr(0x3000)
	m.SpawnAll(4, func(tid int, e cpu.Env) {
		for i := 0; i < iters; i++ {
			if e.Sync(isa.OpLock, 0x2000, 0, 0) != isa.Success {
				t.Error("ideal lock failed")
			}
			v := e.Load(counter)
			e.Compute(3)
			e.Store(counter, v+1)
			e.Sync(isa.OpUnlock, 0x2000, 0, 0)
			e.Compute(9)
		}
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	if got := m.Store.Load(counter); got != 4*iters {
		t.Fatalf("counter = %d, want %d", got, 4*iters)
	}
}

func TestIdealBarrierAndCond(t *testing.T) {
	m := newMachine(4, cpu.ModeIdeal)
	bar := memory.Addr(0x2000)
	lock := memory.Addr(0x2040)
	cond := memory.Addr(0x2080)
	flag := memory.Addr(0x20c0)
	woken := memory.Addr(0x2100)
	m.SpawnAll(4, func(tid int, e cpu.Env) {
		e.Sync(isa.OpBarrier, bar, 4, 0)
		if tid == 0 {
			e.Compute(1000)
			e.Sync(isa.OpLock, lock, 0, 0)
			e.Store(flag, 1)
			e.Sync(isa.OpCondBcast, cond, 0, 0)
			e.Sync(isa.OpUnlock, lock, 0, 0)
			return
		}
		e.Sync(isa.OpLock, lock, 0, 0)
		for e.Load(flag) == 0 {
			e.Sync(isa.OpCondWait, cond, 0, lock)
		}
		e.Store(woken, e.Load(woken)+1)
		e.Sync(isa.OpUnlock, lock, 0, 0)
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	if got := m.Store.Load(woken); got != 3 {
		t.Fatalf("woken = %d, want 3", got)
	}
}

func TestThreadPanicSurfacesAsError(t *testing.T) {
	m := newMachine(1, cpu.ModeAlwaysFail)
	m.SpawnAll(1, func(tid int, e cpu.Env) {
		e.Compute(5)
		panic("workload bug")
	})
	_, err := m.Run(deadline)
	if err == nil || !strings.Contains(err.Error(), "workload bug") {
		t.Fatalf("err = %v, want workload bug surfaced", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := newMachine(2, cpu.ModeIdeal)
	m.SpawnAll(2, func(tid int, e cpu.Env) {
		if tid == 0 {
			e.Sync(isa.OpLock, 0x2000, 0, 0)
			// Never unlocks; thread 1 waits forever.
			return
		}
		e.Compute(100)
		e.Sync(isa.OpLock, 0x2000, 0, 0)
	})
	_, err := m.Run(1_000_000)
	if err == nil || !strings.Contains(err.Error(), "blocked") {
		t.Fatalf("err = %v, want deadlock report", err)
	}
	m.Complex.Kill()
}

func TestSuspendDuringCompute(t *testing.T) {
	m := newMachine(2, cpu.ModeMSA)
	var resumedAt sim.Time
	th := m.Complex.Spawn(0, func(e cpu.Env) {
		e.Compute(1000)
		resumedAt = e.Now()
	})
	m.Complex.Start(th, 0, 0)
	parked := sim.Time(0)
	m.Engine.At(100, func() {
		m.Complex.Suspend(th, func() {
			parked = m.Engine.Now()
			m.Engine.After(5000, func() { m.Complex.Resume(th, 1) })
		})
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	// Suspension takes effect at the Compute boundary (cycle 1000).
	if parked != 1000 {
		t.Fatalf("parked at %d, want 1000", parked)
	}
	if resumedAt != 6000 {
		t.Fatalf("resumed op completed at %d, want 6000", resumedAt)
	}
	if m.Cores[1].Stats().Migrations != 1 {
		t.Fatal("migration not counted")
	}
}

func TestSuspendFinishedThreadIsNoop(t *testing.T) {
	m := newMachine(1, cpu.ModeAlwaysFail)
	th := m.Complex.Spawn(0, func(e cpu.Env) { e.Compute(10) })
	m.Complex.Start(th, 0, 0)
	called := false
	m.Engine.At(50, func() {
		m.Complex.Suspend(th, func() { called = true })
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("onParked not called for finished thread")
	}
}

func TestCoreStats(t *testing.T) {
	m := newMachine(2, cpu.ModeMSA)
	m.SpawnAll(1, func(tid int, e cpu.Env) {
		e.Compute(50)
		e.Sync(isa.OpLock, 0x2000, 0, 0)
		e.Sync(isa.OpUnlock, 0x2000, 0, 0)
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	st := m.Cores[0].Stats()
	if st.ComputeCycles != 50 {
		t.Errorf("ComputeCycles = %d", st.ComputeCycles)
	}
	if st.SyncIssued[isa.OpLock] != 1 || st.SyncIssued[isa.OpUnlock] != 1 {
		t.Errorf("SyncIssued = %v", st.SyncIssued)
	}
	if st.SyncStallCycles == 0 {
		t.Error("SyncStallCycles = 0, expected round-trip stalls")
	}
}

// TestHWSyncFastPathLatency: a silent re-acquire completes in issue latency
// without a round trip.
func TestHWSyncFastPathLatency(t *testing.T) {
	m := machine.New(machine.MSAOMU(4, 2))
	var firstLat, silentLat sim.Time
	m.SpawnAll(1, func(tid int, e cpu.Env) {
		t0 := e.Now()
		e.Sync(isa.OpLock, 0x2000, 0, 0)
		firstLat = e.Now() - t0
		e.Sync(isa.OpUnlock, 0x2000, 0, 0)
		e.Compute(500) // let the grant land
		t1 := e.Now()
		e.Sync(isa.OpLock, 0x2000, 0, 0)
		silentLat = e.Now() - t1
		e.Sync(isa.OpUnlock, 0x2000, 0, 0)
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	if silentLat >= firstLat {
		t.Fatalf("silent lock (%d) not faster than first lock (%d)", silentLat, firstLat)
	}
	if silentLat > 3 {
		t.Fatalf("silent lock took %d cycles, want <= issue latency", silentLat)
	}
}

// TestThreadSwitchAllocFree: one Compute(1) round trip — the kernel resumes
// the thread and the thread yields its next request — allocates nothing.
// Thread start-up allocations amortise to zero over b.N switches.
func TestThreadSwitchAllocFree(t *testing.T) {
	r := testing.Benchmark(func(b *testing.B) {
		m := newMachine(1, cpu.ModeMSA)
		m.SpawnAll(1, func(_ int, e cpu.Env) {
			for i := 0; i < b.N; i++ {
				e.Compute(1)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := m.Run(sim.Time(1) << 40); err != nil {
			b.Fatal(err)
		}
	})
	t.Logf("thread switch: %s %s", r, r.MemString())
	if a := r.AllocsPerOp(); a != 0 {
		t.Fatalf("thread switch allocates %d times per op, want 0", a)
	}
}
