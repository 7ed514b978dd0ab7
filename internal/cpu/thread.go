//go:build go1.23

// The build constraint lifts this file's language version to the one that
// added iter.Pull; the module's go line stays at 1.22 for its dependants.

package cpu

import (
	"fmt"
	"iter"

	"misar/internal/sim"
)

type parkKind uint8

const (
	parkedNone parkKind = iota
	parkedResult
	parkedReissue
)

// Thread is one simulated software thread: a coroutine (iter.Pull) whose
// body yields each request to the event kernel and reads the result from in
// when the kernel resumes it. Switching to and from it bypasses the Go
// scheduler, and only one of the kernel and the thread runs at a time.
type Thread struct {
	id   int
	core *Core
	body func(Env)

	// next runs the body up to its next request (ok false once it has
	// returned); stop unwinds a body that has not. Both are nil until the
	// thread's start event fires. yield is the body's side of next.
	next  func() (threadReq, bool)
	stop  func()
	yield func(threadReq) bool
	in    uint64 // result of the request the body last yielded

	started bool
	done    bool
	err     any // recovered panic from the thread body, if any

	wantSuspend bool
	parked      parkKind
	parkVal     uint64
	reissue     threadReq
	onParked    func() // scheduler notification, may be nil
	onDone      func() // completion notification, may be nil
}

// ID returns the thread id.
func (t *Thread) ID() int { return t.id }

// Done reports whether the thread's body has returned.
func (t *Thread) Done() bool { return t.done }

// Parked reports whether the thread is currently suspended.
func (t *Thread) Parked() bool { return t.parked != parkedNone }

// Err returns the recovered panic value if the thread body panicked.
func (t *Thread) Err() any { return t.err }

// CoreID returns the id of the core the thread last ran on, or -1 before it
// was first scheduled. Used by the liveness watchdog to attribute blocked
// threads to tiles.
func (t *Thread) CoreID() int {
	if t.core == nil {
		return -1
	}
	return t.core.id
}

// Complex manages the machine's cores and threads.
type Complex struct {
	engine  *sim.Engine
	cores   []*Core
	threads []*Thread
	running int
}

// NewComplex groups cores into a schedulable unit.
func NewComplex(engine *sim.Engine, cores []*Core) *Complex {
	return &Complex{engine: engine, cores: cores}
}

// Core returns core i.
func (x *Complex) Core(i int) *Core { return x.cores[i] }

// Threads returns all spawned threads.
func (x *Complex) Threads() []*Thread { return x.threads }

// Running reports how many threads have started but not finished.
func (x *Complex) Running() int { return x.running }

// Spawn creates (but does not start) a thread.
func (x *Complex) Spawn(id int, body func(Env)) *Thread {
	t := &Thread{id: id, body: body}
	x.threads = append(x.threads, t)
	return t
}

// Start launches the thread on a core at simulated time `at`. The thread's
// body runs as a coroutine of the kernel: the kernel waits in next while
// the body executes Go code, preserving determinism.
func (x *Complex) Start(t *Thread, core int, at sim.Time) {
	if t.started {
		panic(fmt.Sprintf("cpu: thread %d started twice", t.id))
	}
	t.started = true
	x.running++
	x.engine.AtCall(at, func(any) {
		c := x.cores[core]
		c.adopt(t)
		t.onDone = func() { x.running-- }
		t.next, t.stop = iter.Pull(t.run)
		c.await()
	}, nil, core)
}

// run is the thread's coroutine body. A panic in the workload is kept in
// err rather than crossing into the kernel; threadKilled is Kill's unwind.
func (t *Thread) run(yield func(threadReq) bool) {
	t.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(threadKilled); !ok {
				t.err = r
			}
		}
	}()
	t.body(env{t})
}

// finish is called by the core when the thread's body has returned.
func (t *Thread) finish() {
	t.done = true
	if t.onDone != nil {
		t.onDone()
	}
}

// park suspends the thread at an operation boundary: the pending result (or
// instruction re-issue) is delivered when the thread is resumed. The core is
// context-switched and freed.
func (t *Thread) park(kind parkKind, val uint64) {
	t.parked = kind
	t.parkVal = val
	t.wantSuspend = false
	c := t.core
	c.stats.Suspends++
	c.contextSwitch()
	c.cur = nil
	if t.onParked != nil {
		t.onParked()
	}
}

// Suspend asks the OS shim to take the thread off its core. The suspension
// takes effect at the thread's next operation boundary; if a LOCK, BARRIER,
// or COND_WAIT is outstanding, a SUSPEND request is sent to the MSA so the
// thread is dequeued or the operation aborted (paper §4.1.2/§4.2.2/§4.3.2).
// onParked (may be nil) fires when the thread has actually left the core.
func (x *Complex) Suspend(t *Thread, onParked func()) {
	if t.done || t.parked != parkedNone {
		if onParked != nil {
			onParked()
		}
		return
	}
	t.onParked = onParked
	t.wantSuspend = true
	c := t.core
	if o := c.out; o != nil && o.t == t && !o.nacked && c.cfg.Mode == ModeMSA {
		c.sendSuspend(o)
	}
}

// Resume places a parked thread back onto a core (possibly a different one —
// migration) and continues it.
func (x *Complex) Resume(t *Thread, core int) {
	if t.parked == parkedNone {
		panic(fmt.Sprintf("cpu: resuming thread %d that is not parked", t.id))
	}
	c := x.cores[core]
	kind := t.parked
	t.parked = parkedNone
	if t.core != nil && t.core.id != core {
		c.stats.Migrations++
	}
	c.stats.Resumes++
	c.adopt(t)
	switch kind {
	case parkedResult:
		c.resume(t, t.parkVal)
	case parkedReissue:
		c.dispatch(t, t.reissue)
	}
}

// Kill tears down all unfinished threads (used when a run is abandoned):
// each body unwinds before Kill returns. Calling it again is a no-op.
func (x *Complex) Kill() {
	for _, t := range x.threads {
		if t.stop != nil && !t.done {
			t.stop()
		}
	}
}
