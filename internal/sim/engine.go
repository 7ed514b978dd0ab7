// Package sim provides the discrete-event simulation kernel that drives the
// entire MiSAR model. All components — cores, caches, directories, routers,
// and the MSA/OMU — schedule work by posting events on behalf of their tile,
// and the kernel fires them in the canonical order (when, posted, origin,
// seq), every part of which is known where the event is posted. The sharded
// kernel (ShardGroup) therefore reproduces the serial order exactly.
//
// The kernel is allocation-free in steady state: events live in a free-list
// pool owned by the engine and are recycled on fire and on cancel, the
// priority queue is a hand-rolled intrusive 4-ary min-heap specialized to
// the event key (no container/heap, no `any` boxing per operation),
// and the AtCall/AfterCall entry points let hot schedulers pass a
// (handler, arg) pair — a package-level function plus a pooled argument —
// instead of capturing state in a fresh closure per event.
package sim

import "fmt"

// Time is the simulated clock in cycles.
type Time uint64

// Handler is a scheduled callback invoked as h(arg) at the event's firing
// time. Hot paths use package-level Handler functions with pooled pointer
// arguments so scheduling allocates nothing.
type Handler func(arg any)

// closureHandler adapts the closure-based At/After API onto the
// (handler, arg) representation: the closure itself is the argument.
func closureHandler(arg any) { arg.(func())() }

// event is the pooled, heap-intrusive representation of one scheduled
// callback. Events are owned by the engine: they are recycled through a
// free list on fire and on cancel, and their callback state (h, arg) is
// cleared at release so a long-dead timer never pins captured state.
type event struct {
	when Time
	key  uint64 // posted<<16 | origin
	seq  uint64
	h    Handler
	arg  any
	pos  int32  // index in Engine.heap; -1 when not queued
	gen  uint64 // incremented on every release; guards stale handles
}

// Event is a cancellable handle to a scheduled event. It is a value type:
// the underlying pooled storage is recycled once the event fires or is
// cancelled, and the generation stamp makes operations through stale
// handles safe no-ops. The zero Event is a valid handle to nothing.
type Event struct {
	eng  *Engine
	p    *event
	gen  uint64
	when Time
}

// When reports the cycle at which the event fires (or fired). It remains
// valid after the event completes.
func (h Event) When() Time { return h.when }

// Pending reports whether the event is still queued: it has not fired and
// has not been cancelled.
func (h Event) Pending() bool {
	return h.p != nil && h.p.gen == h.gen && h.p.pos >= 0
}

// Cancel removes a pending event from the queue; it will not fire, does not
// advance the clock, and does not count in Fired. The event's callback and
// argument are released immediately, so a cancelled long-lived timer does
// not pin whatever state its closure captured. Cancelling an already-fired
// or already-cancelled event is a no-op.
func (h Event) Cancel() {
	if h.p == nil || h.p.gen != h.gen || h.p.pos < 0 {
		return
	}
	h.eng.remove(h.p)
}

// Engine is the event kernel. The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	heap    []*event // intrusive 4-ary min-heap ordered by (when, key, seq)
	free    []*event // recycled events
	alloced uint64   // pool high-water mark: events ever allocated
	stopped bool
	fired   uint64
}

// NewEngine returns an empty kernel at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (a progress metric).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of queued events. Cancelled events leave the
// queue immediately and are not counted.
func (e *Engine) Pending() int { return len(e.heap) }

// PoolAllocated returns how many event structs the engine has ever
// allocated — the pool's high-water mark. In steady state (schedule, fire,
// cancel at a stable outstanding-event count) this stops growing: every
// operation is served from the free list.
func (e *Engine) PoolAllocated() uint64 { return e.alloced }

// get returns a recycled event or allocates a fresh one.
func (e *Engine) get() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	e.alloced++
	return &event{pos: -1}
}

// release clears an event's callback state and returns it to the free list.
// The generation bump invalidates every outstanding handle to it.
func (e *Engine) release(ev *event) {
	ev.h, ev.arg = nil, nil
	ev.pos = -1
	ev.gen++
	e.free = append(e.free, ev)
}

// machineOrigin is the origin of events posted on behalf of no tile (At,
// After, and AtCall/AfterCall without an origin). It sorts after every tile
// posting in the same cycle. Tiles are numbered below it (meshes stop at
// 1024 routers); schedule's mask keeps a stray value out of the posted bits.
const machineOrigin = 1<<16 - 1

// less orders events by (when, posted, origin, seq). Posts from different
// cycles keep their posting order; same-cycle posts for different tiles go
// by tile, not by which ran first — the one tie a sharded run cannot see.
func less(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// siftUp restores the heap property from index i toward the root. The
// element is held out and written once at its final position, so each level
// costs one pointer move instead of a swap.
func (e *Engine) siftUp(i int) {
	q := e.heap
	ev := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].pos = int32(i)
		i = p
	}
	q[i] = ev
	ev.pos = int32(i)
}

// siftDown restores the heap property from index i toward the leaves,
// selecting the minimum of up to four children per level.
func (e *Engine) siftDown(i int) {
	q := e.heap
	n := len(q)
	ev := q[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(q[j], q[m]) {
				m = j
			}
		}
		if !less(q[m], ev) {
			break
		}
		q[i] = q[m]
		q[i].pos = int32(i)
		i = m
	}
	q[i] = ev
	ev.pos = int32(i)
}

// push inserts ev into the heap.
func (e *Engine) push(ev *event) {
	ev.pos = int32(len(e.heap))
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
}

// popMin removes and returns the earliest event. The caller must release it.
func (e *Engine) popMin() *event {
	q := e.heap
	min := q[0]
	n := len(q) - 1
	if n > 0 {
		q[0] = q[n]
		q[0].pos = 0
	}
	q[n] = nil
	e.heap = q[:n]
	if n > 1 {
		e.siftDown(0)
	}
	min.pos = -1
	return min
}

// remove deletes an interior event from the heap and recycles it.
func (e *Engine) remove(ev *event) {
	q := e.heap
	i := int(ev.pos)
	n := len(q) - 1
	if i != n {
		q[i] = q[n]
		q[i].pos = int32(i)
	}
	q[n] = nil
	e.heap = q[:n]
	if i != n && n > 1 {
		e.siftDown(i)
		e.siftUp(int(q[i].pos))
	}
	ev.pos = -1
	e.release(ev)
}

// schedule is the common entry point for all scheduling calls and for
// mailed cross-shard events, which keep the cycle they were posted in.
func (e *Engine) schedule(t, posted Time, h Handler, arg any, from []int) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	origin := uint64(machineOrigin)
	if len(from) > 0 {
		origin = uint64(from[0]) & machineOrigin
	}
	ev := e.get()
	ev.when, ev.key, ev.seq, ev.h, ev.arg = t, uint64(posted)<<16|origin, e.seq, h, arg
	e.seq++
	e.push(ev)
	return Event{eng: e, p: ev, gen: ev.gen, when: t}
}

// At schedules fn to run at absolute cycle t on behalf of no tile (the
// machine origin); it is for schedulers outside the model, such as chaos
// disturbances. Scheduling in the past panics: that is always a model bug.
// The closure-based form allocates the closure at the caller;
// allocation-sensitive schedulers should use AtCall.
func (e *Engine) At(t Time, fn func()) Event {
	return e.AtCall(t, closureHandler, fn)
}

// After schedules fn to run d cycles from now, like At.
func (e *Engine) After(d Time, fn func()) Event {
	return e.AfterCall(d, closureHandler, fn)
}

// AtCall schedules h(arg) at absolute cycle t on behalf of tile from, the
// tile whose component is posting the event; model components always name
// it. Without it the event has the machine origin, like At. With a
// package-level handler and a pooled pointer argument this is
// allocation-free: the event comes from the engine's pool and a pointer
// stored in `any` does not allocate.
func (e *Engine) AtCall(t Time, h Handler, arg any, from ...int) Event {
	return e.schedule(t, e.now, h, arg, from)
}

// AfterCall schedules h(arg) to run d cycles from now, like AtCall.
func (e *Engine) AfterCall(d Time, h Handler, arg any, from ...int) Event {
	return e.schedule(e.now+d, e.now, h, arg, from)
}

// Stop makes Run (and Step, and RunUntil) return after the current event
// completes. Stopping is sticky: the engine refuses further work until
// Resume is called, so a stopped engine can be inspected without racing
// against pending events. Pending events stay queued.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the engine is stopped.
func (e *Engine) Stopped() bool { return e.stopped }

// Resume clears a previous Stop, allowing Step/Run/RunUntil to execute
// events again. Resuming a running engine is a no-op.
func (e *Engine) Resume() { e.stopped = false }

// Step executes the single earliest pending event. It reports false when the
// queue is empty (simulation quiesced) or the engine was stopped.
func (e *Engine) Step() bool {
	if e.stopped || len(e.heap) == 0 {
		return false
	}
	ev := e.popMin()
	e.now = ev.when
	e.fired++
	// Extract the callback and recycle the event before invoking it: the
	// handler may immediately schedule new work into the freed slot, and
	// clearing h/arg here guarantees fired events never pin captured state.
	h, arg := ev.h, ev.arg
	e.release(ev)
	h(arg)
	return true
}

// Run executes events until the queue drains or Stop is called. It returns
// the final simulated time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with firing time <= deadline. It reports whether
// the queue drained (true) or the deadline was reached with work pending
// (false). Reaching the deadline with pending events usually indicates a
// deadlock or runaway workload in tests.
func (e *Engine) RunUntil(deadline Time) bool {
	for {
		if e.stopped || len(e.heap) == 0 {
			return len(e.heap) == 0
		}
		if e.heap[0].when > deadline {
			return false
		}
		e.Step()
	}
}

// RunUntilCheck is RunUntil with a periodic interrupt poll: after every
// `every` fired events it calls interrupt, and stops between events when it
// returns true. This is how caller cancellation (context.Context in
// machine.RunCtx) reaches the single-threaded kernel without putting an
// atomic load on the per-event hot path. every < 1 is treated as 1.
// interrupted is true only when the poll stopped the run; drained keeps
// RunUntil's meaning and is always false when interrupted.
func (e *Engine) RunUntilCheck(deadline Time, every uint64, interrupt func() bool) (drained, interrupted bool) {
	if every < 1 {
		every = 1
	}
	var n uint64
	for {
		if e.stopped || len(e.heap) == 0 {
			return len(e.heap) == 0, false
		}
		if e.heap[0].when > deadline {
			return false, false
		}
		e.Step()
		if n++; n >= every {
			n = 0
			if interrupt() {
				return false, true
			}
		}
	}
}
