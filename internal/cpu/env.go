// Package cpu models the cores and the simulated threads that run on them.
//
// A simulated thread is a coroutine (iter.Pull) that issues timed
// operations — Compute, loads/stores/atomics, and the MiSAR synchronization
// instructions — through the Env interface. Each operation yields to the
// event kernel, which resumes the thread with the result once it commits;
// exactly one of them runs at a time, so the simulation stays deterministic
// while workload and synchronization-library code reads as ordinary
// sequential Go.
//
// Each core runs one thread at a time (the paper's configuration). The
// scheduler shim supports suspending a thread, resuming it on the same or a
// different core (migration), which exercises the MSA's SUSPEND/ABORT paths.
package cpu

import (
	"misar/internal/fault"
	"misar/internal/isa"
	"misar/internal/memory"
	"misar/internal/metrics"
	"misar/internal/obs"
	"misar/internal/sim"
)

// Env is the execution environment a simulated thread sees. All methods
// block (in simulated time) until the operation commits.
type Env interface {
	// ThreadID identifies the thread; Core the tile it currently runs on.
	ThreadID() int
	Core() int
	// Now returns the current simulated cycle.
	Now() sim.Time
	// Compute advances the thread by a block of computation.
	Compute(cycles uint64)
	// Load/Store access the simulated memory through this core's L1.
	Load(a memory.Addr) uint64
	Store(a memory.Addr, v uint64)
	// FetchAdd/Swap/CAS are atomic read-modify-writes.
	FetchAdd(a memory.Addr, delta uint64) uint64
	Swap(a memory.Addr, v uint64) uint64
	CAS(a memory.Addr, old, new uint64) bool
	// Sync executes a synchronization instruction. goal is the barrier
	// participant count; lock is COND_WAIT's associated lock.
	Sync(op isa.SyncOp, addr memory.Addr, goal int, lock memory.Addr) isa.Result
	// Metrics returns the machine's metrics registry, or nil when metering
	// is disabled. Library code resolves instruments through it once at bind
	// time (a nil registry yields nil, zero-cost instruments).
	Metrics() *metrics.Registry
	// Check returns the machine's safety-invariant checker, or nil when
	// invariant checking is disabled. Same bind-once contract as Metrics:
	// a nil checker's methods are no-ops.
	Check() *fault.Checker
	// Faults returns the machine's fault injector, or nil when fault
	// injection is disabled (nil-receiver-safe, like Check).
	Faults() *fault.Injector
	// Flight returns the flight recorder of this core's shard, or nil when
	// none is attached (nil-receiver-safe, like Check).
	Flight() *obs.FlightRecorder
}

// reqKind enumerates thread→kernel requests.
type reqKind uint8

const (
	reqCompute reqKind = iota
	reqLoad
	reqStore
	reqRMW
	reqSync
)

// rmwKind selects the atomic read-modify-write operation. RMW requests carry
// an opcode plus operands rather than a closure so issuing one stays
// allocation-free; the core owns the single closure that interprets them.
type rmwKind uint8

const (
	rmwAdd  rmwKind = iota // val = delta
	rmwSwap                // val = new value
	rmwCAS                 // val = new value, val2 = expected old value
)

type threadReq struct {
	kind   reqKind
	cycles uint64
	addr   memory.Addr
	val    uint64
	val2   uint64
	rmw    rmwKind
	op     isa.SyncOp
	goal   int
	lock   memory.Addr
}

// threadKilled is panicked inside a thread's body to unwind it when the
// machine is torn down mid-run.
type threadKilled struct{}

// env implements Env for one thread. It stays one pointer wide so that
// converting it to Env does not allocate.
type env struct{ t *Thread }

func (e env) ThreadID() int { return e.t.id }
func (e env) Core() int     { return e.t.core.id }
func (e env) Now() sim.Time { return e.t.core.engine.Now() }

func (e env) Metrics() *metrics.Registry { return e.t.core.metrics }

func (e env) Check() *fault.Checker { return e.t.core.check }

func (e env) Faults() *fault.Injector { return e.t.core.injector }

func (e env) Flight() *obs.FlightRecorder { return e.t.core.flight }

// call yields a request to the kernel and returns its result once the
// kernel resumes the thread; yield reports false when Kill stopped it.
func (e env) call(r threadReq) uint64 {
	if !e.t.yield(r) {
		panic(threadKilled{})
	}
	return e.t.in
}

func (e env) Compute(cycles uint64) {
	if cycles == 0 {
		return
	}
	e.call(threadReq{kind: reqCompute, cycles: cycles})
}

func (e env) Load(a memory.Addr) uint64 {
	return e.call(threadReq{kind: reqLoad, addr: a})
}

func (e env) Store(a memory.Addr, v uint64) {
	e.call(threadReq{kind: reqStore, addr: a, val: v})
}

func (e env) FetchAdd(a memory.Addr, delta uint64) uint64 {
	return e.call(threadReq{kind: reqRMW, addr: a, rmw: rmwAdd, val: delta})
}

func (e env) Swap(a memory.Addr, v uint64) uint64 {
	return e.call(threadReq{kind: reqRMW, addr: a, rmw: rmwSwap, val: v})
}

func (e env) CAS(a memory.Addr, old, new uint64) bool {
	return e.call(threadReq{kind: reqRMW, addr: a, rmw: rmwCAS, val: new, val2: old}) == 1
}

func (e env) Sync(op isa.SyncOp, addr memory.Addr, goal int, lock memory.Addr) isa.Result {
	v := e.call(threadReq{kind: reqSync, op: op, addr: addr, goal: goal, lock: lock})
	return isa.Result(v)
}
