// Package sim provides the discrete-event simulation kernel that drives the
// entire MiSAR model. All components — cores, caches, directories, routers,
// and the MSA/OMU — schedule work by posting events on behalf of their tile,
// and the kernel fires them in the canonical order (when, posted, origin,
// seq), every part of which is known where the event is posted. The sharded
// kernel (ShardGroup) therefore reproduces the serial order exactly.
//
// The queue is a timing wheel in front of a heap. Almost every model delay
// is a small constant (a router or link hop, an L1 or directory access), so
// an event due within the next wheelSlots cycles is linked into the wheel
// slot for its cycle, kept sorted by (posted, origin, seq); a one-word
// occupancy bitmap finds the next non-empty slot. Events further out go to
// a hand-rolled intrusive 4-ary min-heap. The next event is whichever of the
// first slot's head and the heap root comes first under the canonical key,
// so a far event and a near one due in the same cycle still fire in order.
//
// The kernel is allocation-free in steady state: events live in a free-list
// pool owned by the engine and are recycled on fire and on cancel, wheel
// slots are intrusive lists, and the AtCall/AfterCall entry points let hot
// schedulers pass a (handler, arg) pair — a package-level function plus a
// pooled argument — instead of capturing state in a fresh closure per event.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is the simulated clock in cycles.
type Time uint64

// Handler is a scheduled callback invoked as h(arg) at the event's firing
// time. Hot paths use package-level Handler functions with pooled pointer
// arguments so scheduling allocates nothing.
type Handler func(arg any)

// closureHandler adapts the closure-based At/After API onto the
// (handler, arg) representation: the closure itself is the argument.
func closureHandler(arg any) { arg.(func())() }

// The timing wheel spans wheelSlots cycles: an event due less than that far
// ahead of now sits in slot when&wheelMask, anything later in the heap.
// Because every queued event is due at or after now, a slot only ever holds
// events of one `when`. 64 slots make the occupancy bitmap one word and take
// about 98% of the model's schedules.
const (
	wheelSlots = 64
	wheelMask  = wheelSlots - 1
)

// Values of event.pos other than a heap index.
const (
	notQueued = -1 // fired, cancelled or free
	inWheel   = -2 // linked into a wheel slot
)

// event is the pooled, intrusive representation of one scheduled callback.
// Events are owned by the engine: they are recycled through a free list on
// fire and on cancel, and their callback state (h, arg) is cleared at
// release so a long-dead timer never pins captured state.
type event struct {
	when       Time
	key        uint64 // posted<<16 | origin
	seq        uint64
	h          Handler
	arg        any
	prev, next *event // wheel slot links; nil outside the wheel
	pos        int32  // index in Engine.heap, inWheel, or notQueued
	gen        uint64 // incremented on every release; guards stale handles
}

// slot is one wheel slot: the events due in one cycle, as a doubly-linked
// list sorted by (key, seq).
type slot struct{ head, tail *event }

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
	return h.p != nil && h.p.gen == h.gen && h.p.pos != notQueued
}

// Cancel removes a pending event from the queue; it will not fire, does not
// advance the clock, and does not count in Fired. The event's callback and
// argument are released immediately, so a cancelled long-lived timer does
// not pin whatever state its closure captured. Cancelling an already-fired
// or already-cancelled event is a no-op.
func (h Event) Cancel() {
	if h.p == nil || h.p.gen != h.gen || h.p.pos == notQueued {
		return
	}
	h.eng.remove(h.p)
}

// Engine is the event kernel. The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	wheel   [wheelSlots]slot // events due in [now, now+wheelSlots)
	occ     uint64           // bit i set iff wheel[i] is non-empty
	nwheel  int              // events in the wheel
	heap    []*event         // later events: intrusive 4-ary min-heap by (when, key, seq)
	free    []*event         // recycled events
	alloced uint64           // pool high-water mark: events ever allocated
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
func (e *Engine) Pending() int { return e.nwheel + len(e.heap) }

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
	return &event{pos: notQueued}
}

// release clears an event's callback state and returns it to the free list.
// The generation bump invalidates every outstanding handle to it.
func (e *Engine) release(ev *event) {
	ev.h, ev.arg = nil, nil
	ev.pos = notQueued
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

// popMin removes the heap root. The caller must release it.
func (e *Engine) popMin() {
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
	min.pos = notQueued
}

// removeHeap deletes an interior event from the heap.
func (e *Engine) removeHeap(ev *event) {
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
	ev.pos = notQueued
}

// link inserts ev into the wheel slot for its cycle. The slot's events all
// share ev.when, so the walk back from the tail compares (key, seq) only;
// local posts almost always append, while cross-shard mail, which carries
// an older posted cycle, can land mid-slot.
func (e *Engine) link(ev *event) {
	i := ev.when & wheelMask
	s := &e.wheel[i]
	p := s.tail
	for p != nil && less(ev, p) {
		p = p.prev
	}
	ev.prev = p
	if p == nil {
		ev.next, s.head = s.head, ev
	} else {
		ev.next, p.next = p.next, ev
	}
	if ev.next == nil {
		s.tail = ev
	} else {
		ev.next.prev = ev
	}
	ev.pos = inWheel
	e.occ |= 1 << i
	e.nwheel++
}

// unlink removes ev from its wheel slot in O(1).
func (e *Engine) unlink(ev *event) {
	i := ev.when & wheelMask
	s := &e.wheel[i]
	if ev.prev == nil {
		s.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if ev.next == nil {
		s.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	if s.head == nil {
		e.occ &^= 1 << i
	}
	ev.prev, ev.next = nil, nil
	ev.pos = notQueued
	e.nwheel--
}

// remove takes a queued event out of the wheel or the heap and recycles it.
func (e *Engine) remove(ev *event) {
	if ev.pos == inWheel {
		e.unlink(ev)
	} else {
		e.removeHeap(ev)
	}
	e.release(ev)
}

// peek returns the earliest queued event, or nil. The wheel's earliest
// event heads the first occupied slot at or after now (the bitmap rotated
// so that now's slot is bit 0); a heap event due in the same cycle — posted
// while that cycle was still beyond the wheel — is ordered against it by
// the full key.
func (e *Engine) peek() *event {
	var w *event
	if e.occ != 0 {
		off := bits.TrailingZeros64(bits.RotateLeft64(e.occ, -int(e.now&wheelMask)))
		w = e.wheel[(e.now+Time(off))&wheelMask].head
	}
	if len(e.heap) > 0 && (w == nil || less(e.heap[0], w)) {
		return e.heap[0]
	}
	return w
}

// fire dequeues ev, the event peek returned, advances the clock to it and
// runs it.
func (e *Engine) fire(ev *event) {
	if ev.pos == inWheel {
		e.unlink(ev)
	} else {
		e.popMin()
	}
	e.now = ev.when
	e.fired++
	// Extract the callback and recycle the event before invoking it: the
	// handler may immediately schedule new work into the freed slot, and
	// clearing h/arg here guarantees fired events never pin captured state.
	h, arg := ev.h, ev.arg
	e.release(ev)
	h(arg)
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
	if t-e.now < wheelSlots {
		e.link(ev)
	} else {
		e.push(ev)
	}
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
	if e.stopped {
		return false
	}
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.fire(ev)
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
	for !e.stopped {
		ev := e.peek()
		if ev == nil {
			return true
		}
		if ev.when > deadline {
			return false
		}
		e.fire(ev)
	}
	return e.Pending() == 0
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
	for !e.stopped {
		ev := e.peek()
		if ev == nil {
			return true, false
		}
		if ev.when > deadline {
			return false, false
		}
		e.fire(ev)
		if n++; n >= every {
			n = 0
			if interrupt() {
				return false, true
			}
		}
	}
	return e.Pending() == 0, false
}
