package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// The event pool must recycle storage: after an event fires, the next
// scheduling reuses its slot instead of allocating.
func TestPoolReuseAfterFire(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.PoolAllocated() == 0 {
		t.Fatal("pool never allocated")
	}
	high := e.PoolAllocated()
	// Steady-state churn: schedule/fire repeatedly at the same depth.
	for i := 0; i < 10000; i++ {
		e.After(1, func() {})
		e.Step()
	}
	if got := e.PoolAllocated(); got != high {
		t.Fatalf("steady-state churn grew the pool: %d -> %d", high, got)
	}
}

// Cancelled events must return to the pool immediately, not only when their
// firing time is reached.
func TestPoolReuseAfterCancel(t *testing.T) {
	e := NewEngine()
	warm := e.At(1, func() {})
	warm.Cancel()
	high := e.PoolAllocated()
	for i := 0; i < 10000; i++ {
		// A long-lived timer cancelled long before it would fire: with
		// immediate recycling the pool never grows past the warm-up mark.
		ev := e.At(1_000_000+Time(i), func() {})
		ev.Cancel()
	}
	if got := e.PoolAllocated(); got != high {
		t.Fatalf("cancel churn grew the pool: %d -> %d", high, got)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after cancelling everything", e.Pending())
	}
}

// A handle to a fired event must not affect the pooled slot's next tenant.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, func() {})
	e.Step() // fires; slot recycled
	fired := false
	fresh := e.At(2, func() { fired = true })
	stale.Cancel() // stale generation: must be a no-op
	if fresh.Pending() != true {
		t.Fatal("stale Cancel() cancelled the slot's new tenant")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// Cancel must also be generation-safe when the slot was recycled via Cancel
// rather than via firing.
func TestStaleHandleAfterCancelRecycle(t *testing.T) {
	e := NewEngine()
	first := e.At(10, func() { t.Error("cancelled event fired") })
	first.Cancel()
	ok := false
	second := e.At(10, func() { ok = true })
	first.Cancel() // stale; must not touch `second`, which reuses the slot
	if !second.Pending() {
		t.Fatal("stale handle cancelled the recycled slot's new event")
	}
	e.Run()
	if !ok {
		t.Fatal("live event did not fire")
	}
}

// refEvent / refModel: a naive sorted-slice reference implementation of the
// kernel's contract, used as the oracle for fuzzing the intrusive heap.
type refEvent struct {
	when      Time
	seq       uint64
	id        int
	cancelled bool
}

type refModel struct {
	now    Time
	seq    uint64
	events []*refEvent
}

func (m *refModel) at(t Time, id int) *refEvent {
	ev := &refEvent{when: t, seq: m.seq, id: id}
	m.seq++
	m.events = append(m.events, ev)
	return ev
}

// step fires the earliest live event, returning its id, or -1 if none.
func (m *refModel) step() int {
	live := m.events[:0]
	for _, ev := range m.events {
		if !ev.cancelled {
			live = append(live, ev)
		}
	}
	m.events = live
	if len(m.events) == 0 {
		return -1
	}
	sort.SliceStable(m.events, func(i, j int) bool {
		if m.events[i].when != m.events[j].when {
			return m.events[i].when < m.events[j].when
		}
		return m.events[i].seq < m.events[j].seq
	})
	ev := m.events[0]
	m.events = m.events[1:]
	m.now = ev.when
	return ev.id
}

// Fuzz the heap against the reference model under interleaved At / Cancel /
// Step, checking identical firing order, identical clocks, and the heap
// invariant throughout.
func TestHeapFuzzAgainstReferenceModel(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ref := &refModel{}
		var liveHandles []Event
		var liveRef []*refEvent
		var fired []int
		nextID := 0

		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // schedule
				t0 := e.Now() + Time(rng.Intn(50))
				id := nextID
				nextID++
				liveHandles = append(liveHandles, e.At(t0, func() { fired = append(fired, id) }))
				liveRef = append(liveRef, ref.at(t0, id))
			case r < 7: // cancel a random outstanding event (possibly stale)
				if len(liveHandles) > 0 {
					i := rng.Intn(len(liveHandles))
					liveHandles[i].Cancel()
					liveRef[i].cancelled = true
				}
			default: // step
				want := ref.step()
				before := len(fired)
				stepped := e.Step()
				if want == -1 {
					if stepped {
						t.Fatalf("seed %d op %d: engine fired with empty reference", seed, op)
					}
					continue
				}
				if !stepped || len(fired) != before+1 || fired[len(fired)-1] != want {
					t.Fatalf("seed %d op %d: engine fired %v, reference wants id %d",
						seed, op, fired[before:], want)
				}
				if e.Now() != ref.now {
					t.Fatalf("seed %d op %d: clock %d, reference %d", seed, op, e.Now(), ref.now)
				}
			}
			checkHeapInvariant(t, e)
		}
	}
}

// checkHeapInvariant verifies the 4-ary heap ordering and the intrusive
// position indices.
func checkHeapInvariant(t *testing.T, e *Engine) {
	t.Helper()
	for i, ev := range e.heap {
		if int(ev.pos) != i {
			t.Fatalf("heap[%d].pos = %d", i, ev.pos)
		}
		if i > 0 {
			p := (i - 1) >> 2
			if less(ev, e.heap[p]) {
				t.Fatalf("heap violation at %d: (%d,%d) < parent (%d,%d)",
					i, ev.when, ev.seq, e.heap[p].when, e.heap[p].seq)
			}
		}
	}
}

// Determinism: the (when, seq) tie-break must survive pool recycling — an
// event's firing order depends only on its scheduling order, never on which
// pooled slot it landed in.
func TestPooledTieBreakDeterminism(t *testing.T) {
	run := func(churn int) []int {
		e := NewEngine()
		// Perturb the pool's slot assignment with unrelated churn first.
		for i := 0; i < churn; i++ {
			ev := e.At(Time(1+i%7), func() {})
			if i%3 == 0 {
				ev.Cancel()
			}
		}
		e.Run()
		base := e.Now()
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			e.At(base+Time(10+(i%5)), func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	want := run(0)
	for _, churn := range []int{1, 17, 256, 999} {
		got := run(churn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("churn %d changed firing order at %d: got %d want %d",
					churn, i, got[i], want[i])
			}
		}
	}
}

// Stop is sticky until Resume: a stopped engine refuses Step/Run/RunUntil,
// and Resume re-enables them with the queue intact.
func TestEngineStopResumeContract(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(1, func() { order = append(order, 1); e.Stop() })
	e.At(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 1 {
		t.Fatalf("Stop did not halt Run: %v", order)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	if e.Step() {
		t.Fatal("Step executed on a stopped engine")
	}
	if e.Run() != 1 {
		t.Fatal("Run advanced a stopped engine")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want the un-fired event to stay queued", e.Pending())
	}
	e.Resume()
	if e.Stopped() {
		t.Fatal("Stopped() = true after Resume")
	}
	e.Run()
	if len(order) != 2 || order[1] != 2 {
		t.Fatalf("Resume did not continue the queue: %v", order)
	}
	e.Resume() // resuming a running engine is a no-op
}

// A fired or cancelled handle keeps reporting its scheduling time.
func TestEventWhenSurvivesRecycle(t *testing.T) {
	e := NewEngine()
	a := e.At(7, func() {})
	b := e.At(9, func() {})
	b.Cancel()
	e.Run()
	if a.When() != 7 || b.When() != 9 {
		t.Fatalf("When after recycle: a=%d b=%d, want 7, 9", a.When(), b.When())
	}
	if a.Pending() || b.Pending() {
		t.Fatal("completed handles still report Pending")
	}
}

// BenchmarkEngineChurn measures the kernel's steady-state schedule/fire/
// cancel loop. The acceptance bar is 0 allocs/op: every event comes from
// the pool, and neither the closure-free AtCall path nor Cancel allocates.
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	nop := func(any) {}
	// Warm the pool and the heap slice.
	for i := 0; i < 64; i++ {
		e.AtCall(Time(i), nop, nil)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Two schedules, one cancel, two fires: exercises push, remove, and
		// popMin against the free list every iteration, with origins as model
		// components pass them.
		e.AfterCall(3, nop, nil, 1)
		dead := e.AfterCall(5, nop, nil, 2)
		e.AfterCall(1, nop, nil, 1)
		dead.Cancel()
		e.Step()
		e.Step()
	}
}

// BenchmarkEngineChurnClosure measures the compatibility path (closure per
// event); the closure itself is the only allocation.
func BenchmarkEngineChurnClosure(b *testing.B) {
	e := NewEngine()
	e.At(0, func() {})
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}
