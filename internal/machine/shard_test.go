package machine

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"misar/internal/cpu"
	"misar/internal/memory"
	"misar/internal/obs"
	"misar/internal/sim"
	"misar/internal/syncrt"
)

// waitGoroutines retries until the goroutine count returns to its pre-test
// level (worker teardown is asynchronous with respect to RunCtx returning
// only on the panic path; elsewhere it is a strict post-condition).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// shardedConfig is the reference sharded machine for these tests: 16 tiles on
// a 4×4 mesh (so 2 and 4 shards divide the height), full observability on.
func shardedConfig(tiles, shards int) Config {
	cfg := MSAOMU(tiles, 2)
	cfg.Metrics = true
	cfg.Invariants = true
	cfg.Shards = shards
	return cfg
}

// shardWorkload spawns the canonical mixed workload on every tile: a
// contended global mutex protecting a non-atomic counter, then barrier
// phases — both cross every shard boundary, through the MSA under HWLib or
// as same-cycle coherence races at the lock's home directory under
// PthreadLib.
func shardWorkload(m *Machine, lib *syncrt.Lib, tiles, iters, phases int) (counter memory.Addr) {
	arena := syncrt.NewArena(0x100000)
	lock := arena.Mutex()
	counter = arena.Data(1)
	bar := arena.Barrier(tiles)
	qnodes := make([]memory.Addr, tiles)
	for i := range qnodes {
		qnodes[i] = arena.QNode()
	}
	m.SpawnAll(tiles, func(tid int, e cpu.Env) {
		rt := lib.Bind(e, qnodes[tid])
		for i := 0; i < iters; i++ {
			rt.Lock(lock)
			v := e.Load(counter)
			e.Compute(5)
			e.Store(counter, v+1)
			rt.Unlock(lock)
			e.Compute(uint64(7 + tid))
		}
		for p := 0; p < phases; p++ {
			e.Compute(uint64(3 + tid%5))
			rt.Wait(bar)
		}
	})
	return counter
}

type shardRun struct {
	end      sim.Time
	counter  uint64
	snapshot string // JSON metrics snapshot: map keys marshal sorted, so diffable
	syncOps  uint64
}

func runSharded(t *testing.T, lib *syncrt.Lib, tiles, shards, iters, phases int) shardRun {
	t.Helper()
	m := New(shardedConfig(tiles, shards))
	counter := shardWorkload(m, lib, tiles, iters, phases)
	end, err := m.Run(deadline)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	m.collectMetrics()
	b, err := json.Marshal(m.Metrics.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return shardRun{end, m.Store.Load(counter), string(b), m.SyncOps()}
}

// TestShardedMachineMatchesSerial is the machine-level equivalence result:
// both kernels order events by the same canonical key (DESIGN.md §14), so
// a sharded run is the serial run — same end cycle, same counter, same sync
// operations, byte-identical merged metrics — at every shard count. The
// pthread variant is the contended case (16 threads on one TTS lock, the
// shape of Fig. 5's LockHandoff), where same-cycle requests race at the
// lock's home directory from tiles on different shards.
func TestShardedMachineMatchesSerial(t *testing.T) {
	const tiles, iters, phases = 16, 6, 4
	for _, lib := range []*syncrt.Lib{syncrt.HWLib(), syncrt.PthreadLib()} {
		serial := runSharded(t, lib, tiles, 0, iters, phases)
		if serial.counter != tiles*iters {
			t.Fatalf("%s: serial counter = %d, want %d", lib.Desc(), serial.counter, tiles*iters)
		}
		for _, k := range []int{1, 2, 4} {
			got := runSharded(t, lib, tiles, k, iters, phases)
			if got.end != serial.end || got.counter != serial.counter || got.syncOps != serial.syncOps {
				t.Errorf("%s shards=%d: end %d counter %d sync ops %d; serial %d, %d, %d", lib.Desc(), k,
					got.end, got.counter, got.syncOps, serial.end, serial.counter, serial.syncOps)
			}
			if got.snapshot != serial.snapshot {
				t.Errorf("%s shards=%d: metrics snapshot diverges from serial\n sharded: %.300s\n serial:  %.300s",
					lib.Desc(), k, got.snapshot, serial.snapshot)
			}
		}
	}
}

// TestShardedRaggedMesh: 8 tiles land on a 3×3 mesh whose last position is
// a core-less pass-through router; with 3 shards (height 3 divides) that
// router still needs a shard owner for its hop events. Regression for the
// shard map being sized to the tile count instead of the mesh.
func TestShardedRaggedMesh(t *testing.T) {
	const tiles, iters, phases = 8, 4, 3
	serial := runSharded(t, syncrt.HWLib(), tiles, 0, iters, phases)
	if got := runSharded(t, syncrt.HWLib(), tiles, 3, iters, phases); got != serial {
		t.Fatalf("ragged-mesh run on 3 shards diverged from serial:\n%+v\n%+v", got, serial)
	}
}

// TestShardedMachineDeterministic: same config, same workload, same bytes —
// twice, at every shard count.
func TestShardedMachineDeterministic(t *testing.T) {
	for _, k := range []int{2, 4} {
		a := runSharded(t, syncrt.HWLib(), 16, k, 5, 3)
		b := runSharded(t, syncrt.HWLib(), 16, k, 5, 3)
		if a != b {
			t.Fatalf("shards=%d: two identical runs diverged:\n%+v\n%+v", k, a, b)
		}
	}
}

// TestShardedCancelMidRun cancels from inside a shard's own event stream and
// checks the structured error plus full worker-goroutine teardown.
func TestShardedCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(shardedConfig(16, 4))
	m.SpawnAll(16, func(tid int, e cpu.Env) {
		for {
			e.Compute(10)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Group.Engine(2).At(5_000, func() { cancel() })

	_, err := m.RunCtx(ctx, sim.Time(1_000_000_000_000))
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false (err %v)", err)
	}
	if ce.At < 5_000 {
		t.Errorf("cancelled at cycle %d, before the cancel event", ce.At)
	}
	// Kill unwinds every thread body before RunCtx returns; the shard
	// workers exit on their own, so leak-freedom, not a counter, is the
	// post-condition.
	waitGoroutines(t, before)
}

// TestShardedCancelStress is the mid-window teardown soak: many short runs,
// each cancelled at a different point in the window schedule, must every
// time produce a clean CancelError and leak nothing. CI runs this under
// -race, where it doubles as a handoff-ordering check on the barrier.
func TestShardedCancelStress(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	before := runtime.NumGoroutine()
	for round := 0; round < rounds; round++ {
		m := New(shardedConfig(16, 4))
		m.SpawnAll(16, func(tid int, e cpu.Env) {
			for {
				e.Compute(uint64(5 + tid%7))
			}
		})
		ctx, cancel := context.WithCancel(context.Background())
		// Vary both the cancelling shard and the cycle within the window
		// schedule, so teardown is exercised at many barrier phases.
		shard := round % 4
		at := sim.Time(500 + 37*round)
		m.Group.Engine(shard).At(at, func() { cancel() })
		_, err := m.RunCtx(ctx, sim.Time(1_000_000_000_000))
		cancel()
		var ce *CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("round %d: err = %v, want *CancelError", round, err)
		}
	}
	waitGoroutines(t, before)
}

// TestShardedPanicBecomesStructuredError: a component panic on a non-zero
// shard must surface as *PanicError carrying the faulting shard's own stack,
// with all workers joined.
func TestShardedPanicBecomesStructuredError(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(shardedConfig(16, 4))
	m.SpawnAll(16, func(tid int, e cpu.Env) {
		for i := 0; i < 50; i++ {
			e.Compute(10)
		}
	})
	m.Group.Engine(3).At(100, func() { panic("injected component fault") })
	_, err := m.Run(deadline)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "injected component fault" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if pe.Stack == "" {
		t.Error("PanicError.Stack empty, want the faulting shard's stack")
	}
	waitGoroutines(t, before)
}

// TestShardedFlightEventsMerged: the per-shard flight rings merge into one
// timestamp-ordered dump spanning tiles from different shards.
func TestShardedFlightEventsMerged(t *testing.T) {
	m := New(shardedConfig(16, 4))
	shardWorkload(m, syncrt.HWLib(), 16, 3, 2)
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	evs := m.FlightEvents()
	if len(evs) == 0 {
		t.Fatal("no flight events recorded")
	}
	shardsSeen := map[int]bool{}
	for i, e := range evs {
		if i > 0 && evs[i-1].At > e.At {
			t.Fatalf("flight events out of order at %d: %d then %d", i, evs[i-1].At, e.At)
		}
		shardsSeen[m.ShardOf(int(e.Tile))] = true
	}
	if len(shardsSeen) != 4 {
		t.Errorf("flight dump covers %d shards, want 4", len(shardsSeen))
	}
}

// TestShardedRejectsIncompatibleConfigs: the constructor refuses the
// combinations validateSharding documents, with the same message Validate
// would report for file-loaded configs.
func TestShardedRejectsIncompatibleConfigs(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: New did not panic", name)
			}
		}()
		New(cfg)
	}
	ideal := Ideal(16)
	ideal.Shards = 2
	mustPanic("ideal", ideal)

	badBands := shardedConfig(16, 3) // 3 does not divide height 4
	mustPanic("bands", badBands)

	faulted := shardedConfig(16, 2)
	faulted.Fault.SteerRate = 1 << 20
	mustPanic("fault-injection", faulted)
}

// TestShardedTracing: an enlarged flight ring is the protocol trace on a
// sharded machine too. Core issue/done events and slice events arrive from
// tiles on both shards, nothing is dropped, the merged timeline is
// time-ordered, and the address filter applies on every shard.
func TestShardedTracing(t *testing.T) {
	const tiles = 16
	// One lock per tile: consecutive lines spread the homes over the whole
	// mesh, so both shards' slices serve requests.
	run := func(filter *memory.Addr) (*Machine, []syncrt.Mutex) {
		m := New(shardedConfig(tiles, 2))
		m.ResizeFlight(1<<20, filter)
		arena := syncrt.NewArena(0x100000)
		locks := arena.MutexArray(tiles)
		qnodes := make([]memory.Addr, tiles) // allocated up front: shards run threads concurrently
		for i := range qnodes {
			qnodes[i] = arena.QNode()
		}
		lib := syncrt.HWLib()
		m.SpawnAll(tiles, func(tid int, e cpu.Env) {
			rt := lib.Bind(e, qnodes[tid])
			for i := 0; i < 2*tiles; i++ {
				l := locks[(tid+i)%tiles]
				rt.Lock(l)
				e.Compute(10)
				rt.Unlock(l)
			}
		})
		if _, err := m.Run(deadline); err != nil {
			t.Fatal(err)
		}
		return m, locks
	}

	m, locks := run(nil)
	d := m.FlightDump()
	if d.Total != uint64(len(d.Events)) {
		t.Fatalf("enlarged ring dropped events: %d recorded, %d retained", d.Total, len(d.Events))
	}
	type key struct {
		shard int
		kind  obs.FlightKind
	}
	seen := map[key]int{}
	for i, e := range d.Events {
		if i > 0 && d.Events[i-1].At > e.At {
			t.Fatalf("trace out of order at %d: %d then %d", i, d.Events[i-1].At, e.At)
		}
		seen[key{m.ShardOf(int(e.Tile)), e.Kind}]++
	}
	for shard := 0; shard < 2; shard++ {
		for _, k := range []obs.FlightKind{obs.FIssue, obs.FDone, obs.FMsaReq, obs.FMsaResp} {
			if seen[key{shard, k}] == 0 {
				t.Errorf("shard %d recorded no %v events", shard, k)
			}
		}
	}

	// Filtered to one lock, every shard keeps only that lock's events.
	addr := locks[0].Addr
	m, _ = run(&addr)
	d = m.FlightDump()
	if len(d.Events) == 0 || d.Filtered == 0 {
		t.Fatalf("filtered trace: %d events kept, %d filtered", len(d.Events), d.Filtered)
	}
	shards := map[int]bool{}
	for _, e := range d.Events {
		if e.Addr != addr {
			t.Fatalf("filter let through %v", e)
		}
		shards[m.ShardOf(int(e.Tile))] = true
	}
	if len(shards) != 2 {
		t.Errorf("filtered trace covers %d shards, want 2", len(shards))
	}
}
