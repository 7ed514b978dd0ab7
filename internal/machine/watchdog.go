package machine

// The liveness watchdog. When a run stops making progress — the event queue
// drains with threads still blocked, or the cycle budget expires with work
// pending — Run does not simply report "deadlock": it assembles a structured
// Diagnosis of who is blocked on what, across both the hardware world (MSA
// entry snapshots, outstanding synchronization instructions at the cores) and
// the software world (the invariant checker's lock/barrier/cond registries),
// builds the lock wait-for graph spanning the two, and reports any cycles.
// The same machinery serves fault-injection campaigns (cmd/misar-chaos),
// where a liveness failure under an adversarial schedule must be triaged from
// a single deterministic seed.

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	corepkg "misar/internal/core"
	"misar/internal/fault"
	"misar/internal/isa"
	"misar/internal/memory"
	"misar/internal/obs"
	"misar/internal/sim"
)

// FlightOf extracts the flight-recorder dump carried by a structured run
// error (LivenessError, SafetyError, PanicError), or nil for other errors.
// Callers get the machine's last protocol events without caring which
// failure class produced them.
func FlightOf(err error) []obs.FlightEvent {
	var le *LivenessError
	if errors.As(err, &le) {
		return le.Flight
	}
	var se *SafetyError
	if errors.As(err, &se) {
		return se.Flight
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe.Flight
	}
	return nil
}

// ThreadDiag describes one unfinished thread at diagnosis time.
type ThreadDiag struct {
	ID     int  `json:"id"`
	Core   int  `json:"core"` // tile the thread last ran on; -1 if never scheduled
	Parked bool `json:"parked"`
	// Outstanding synchronization instruction at the thread's core, if the
	// thread is installed there and one is in flight.
	OutOp    string      `json:"out_op,omitempty"`
	OutAddr  memory.Addr `json:"out_addr,omitempty"`
	OutSince sim.Time    `json:"out_since,omitempty"`
}

// EntryDiag is one live MSA entry, tagged with its home tile.
type EntryDiag struct {
	Tile int `json:"tile"`
	corepkg.EntrySnapshot
}

// WaitEdge is one edge of the lock wait-for graph: Waiter is blocked on a
// lock currently held by Holder (both thread ids; hardware-side core ids are
// resolved to the thread installed on that core).
type WaitEdge struct {
	Waiter int         `json:"waiter"`
	Holder int         `json:"holder"`
	Addr   memory.Addr `json:"addr"`
}

// Diagnosis is the watchdog's structured report of a stuck (or suspect)
// machine. All slices are sorted for deterministic rendering.
type Diagnosis struct {
	Reason  string       `json:"reason"`
	Now     sim.Time     `json:"now"`
	Blocked []ThreadDiag `json:"blocked,omitempty"`
	Entries []EntryDiag  `json:"entries,omitempty"`
	// LastReq[i] is the cycle at which MSA slice i last accepted a request —
	// a quick read on which tile went quiet first.
	LastReq []sim.Time `json:"last_req,omitempty"`
	// Software-world registries from the invariant checker (empty when
	// invariant checking is disabled).
	Locks    []fault.LockState    `json:"locks,omitempty"`
	Barriers []fault.BarrierState `json:"barriers,omitempty"`
	Conds    []fault.CondState    `json:"conds,omitempty"`
	// Safety violations recorded so far, folded in so a single error value
	// carries both the liveness and the safety story.
	Violations []fault.Violation `json:"violations,omitempty"`
	// The lock wait-for graph and any cycles found in it (each cycle a list
	// of thread ids; a cycle is a proven deadlock among those threads).
	Edges  []WaitEdge `json:"edges,omitempty"`
	Cycles [][]int    `json:"cycles,omitempty"`
}

// Summary renders the diagnosis as a compact human-readable block.
func (d *Diagnosis) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "liveness diagnosis at cycle %d:\n", d.Now)
	for _, t := range d.Blocked {
		fmt.Fprintf(&b, "  thread %d on core %d", t.ID, t.Core)
		if t.Parked {
			b.WriteString(" (parked)")
		}
		if t.OutOp != "" {
			fmt.Fprintf(&b, " awaiting %s %#x since cycle %d", t.OutOp, t.OutAddr, t.OutSince)
		}
		b.WriteByte('\n')
	}
	for _, e := range d.Entries {
		fmt.Fprintf(&b, "  msa[%d] %s %#x owner=%d waiters=%#x goal=%d pins=%d",
			e.Tile, e.Typ, e.Addr, e.Owner, e.Waiters, e.Goal, e.Pins)
		if e.Standby {
			b.WriteString(" standby")
		}
		if e.Draining {
			b.WriteString(" draining")
		}
		if e.Revoking {
			b.WriteString(" revoking")
		}
		b.WriteByte('\n')
	}
	for _, l := range d.Locks {
		if !l.Held && len(l.Waiters) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  lock %#x", l.Addr)
		if l.Held {
			fmt.Fprintf(&b, " held by %d (%s)", l.Holder, l.World)
		} else {
			b.WriteString(" free")
		}
		if len(l.Waiters) > 0 {
			fmt.Fprintf(&b, " waiters=%v", l.Waiters)
		}
		b.WriteByte('\n')
	}
	for _, bs := range d.Barriers {
		fmt.Fprintf(&b, "  barrier %#x (%s) %d/%d arrived %v\n",
			bs.Addr, bs.World, len(bs.Arrived), bs.Goal, bs.Arrived)
	}
	for _, c := range d.Conds {
		fmt.Fprintf(&b, "  cond %#x waiters=%v\n", c.Addr, c.Waiters)
	}
	for _, cyc := range d.Cycles {
		fmt.Fprintf(&b, "  wait-for cycle: %v\n", cyc)
	}
	for _, v := range d.Violations {
		fmt.Fprintf(&b, "  violation: %s\n", v.String())
	}
	return strings.TrimRight(b.String(), "\n")
}

// Diagnose assembles a Diagnosis for the machine's current state. It is
// read-only and safe to call at any point the engine is not mid-event; Run
// calls it when a liveness check trips.
func (m *Machine) Diagnose(reason string) *Diagnosis {
	d := &Diagnosis{Reason: reason, Now: m.Now()}

	// Thread states, with the outstanding instruction when the thread is
	// the one installed on its core. Threads() merges every shard complex,
	// so a sharded machine's diagnosis spans the whole machine.
	for _, t := range m.Threads() {
		if t.Done() {
			continue
		}
		td := ThreadDiag{ID: t.ID(), Core: t.CoreID(), Parked: t.Parked()}
		if c := t.CoreID(); c >= 0 && m.Cores[c].Current() == t {
			if op, addr, since, ok := m.Cores[c].Outstanding(); ok {
				td.OutOp = op.String()
				td.OutAddr = addr
				td.OutSince = since
			}
		}
		d.Blocked = append(d.Blocked, td)
	}
	// Threads() groups by shard; re-sort by id so the report is stable
	// regardless of how threads were distributed.
	sort.Slice(d.Blocked, func(i, j int) bool { return d.Blocked[i].ID < d.Blocked[j].ID })

	// Hardware world: live MSA entries and per-tile last-request times.
	d.LastReq = make([]sim.Time, len(m.Slices))
	for i, sl := range m.Slices {
		d.LastReq[i] = sl.LastReq()
		for _, e := range sl.Snapshot() {
			d.Entries = append(d.Entries, EntryDiag{Tile: i, EntrySnapshot: e})
		}
	}

	// Software world (and recorded violations), when the checker is attached.
	if ch := m.Checker; ch != nil {
		d.Locks = ch.LockStates()
		d.Barriers = ch.BarrierStates()
		d.Conds = ch.CondStates()
		d.Violations = ch.Violations()
	}

	d.Edges = m.waitEdges(d)
	d.Cycles = findCycles(d.Edges)
	return d
}

// threadOnCore resolves a core id to the id of the thread installed on it,
// or -1 when the core is idle.
func (m *Machine) threadOnCore(c int) int {
	if c < 0 || c >= len(m.Cores) {
		return -1
	}
	if t := m.Cores[c].Current(); t != nil {
		return t.ID()
	}
	return -1
}

// waitEdges builds the lock wait-for graph over thread ids, merging the
// hardware world (MSA lock entries: waiter cores blocked on an owner core)
// with the software world (the checker's lock registry). Hardware core ids
// are resolved through the scheduler to the thread currently installed;
// edges whose endpoints cannot be resolved are dropped — the graph is a
// best-effort aid, the authoritative state is in the Diagnosis itself.
func (m *Machine) waitEdges(d *Diagnosis) []WaitEdge {
	var edges []WaitEdge
	add := func(waiter, holder int, addr memory.Addr) {
		if waiter < 0 || holder < 0 || waiter == holder {
			return
		}
		edges = append(edges, WaitEdge{Waiter: waiter, Holder: holder, Addr: addr})
	}

	for _, e := range d.Entries {
		if e.Typ != isa.TypeLock || e.Owner < 0 {
			continue
		}
		holder := m.threadOnCore(e.Owner)
		for c := 0; c < len(m.Cores); c++ {
			if e.Waiters.Has(c) {
				add(m.threadOnCore(c), holder, e.Addr)
			}
		}
	}
	for _, l := range d.Locks {
		if !l.Held {
			continue
		}
		holder := l.Holder
		if l.World == fault.WorldHW {
			holder = m.threadOnCore(holder)
		}
		for _, w := range l.Waiters {
			waiter := w.ID
			if w.World == fault.WorldHW {
				waiter = m.threadOnCore(waiter)
			}
			add(waiter, holder, l.Addr)
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Waiter != edges[j].Waiter {
			return edges[i].Waiter < edges[j].Waiter
		}
		if edges[i].Holder != edges[j].Holder {
			return edges[i].Holder < edges[j].Holder
		}
		return edges[i].Addr < edges[j].Addr
	})
	// Dedup (an edge can be seen by both worlds).
	out := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			out = append(out, e)
		}
	}
	return out
}

// findCycles reports the simple cycles of the wait-for graph via DFS with an
// on-stack marker. Each cycle is rotated to start at its smallest thread id
// and reported once.
func findCycles(edges []WaitEdge) [][]int {
	adj := map[int][]int{}
	for _, e := range edges {
		adj[e.Waiter] = append(adj[e.Waiter], e.Holder)
	}
	nodes := make([]int, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[int]int{}
	var stack []int
	seen := map[string]bool{}
	var cycles [][]int

	var dfs func(n int)
	dfs = func(n int) {
		color[n] = gray
		stack = append(stack, n)
		for _, next := range adj[n] {
			switch color[next] {
			case white:
				dfs(next)
			case gray:
				// Back edge: the cycle is the stack suffix from next to n.
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == next {
						cyc := normalizeCycle(stack[i:])
						key := fmt.Sprint(cyc)
						if !seen[key] {
							seen[key] = true
							cycles = append(cycles, cyc)
						}
						break
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			dfs(n)
		}
	}
	return cycles
}

// normalizeCycle rotates a cycle so its smallest element comes first.
func normalizeCycle(c []int) []int {
	min := 0
	for i := range c {
		if c[i] < c[min] {
			min = i
		}
	}
	out := make([]int, 0, len(c))
	out = append(out, c[min:]...)
	out = append(out, c[:min]...)
	return out
}

// LivenessError is returned by Run when the machine stops making progress:
// either the event queue drained with threads still blocked (a true
// quiescent deadlock) or the cycle budget expired with work pending
// (livelock or pathological slowdown). Reason preserves the legacy one-line
// description; Diag carries the full structured picture.
type LivenessError struct {
	Reason string
	Diag   *Diagnosis
	// Flight is the machine's flight-recorder tail at failure time: the
	// last protocol events leading into the hang (see obs.FlightRecorder).
	Flight []obs.FlightEvent
}

func (e *LivenessError) Error() string {
	if e.Diag == nil {
		return e.Reason
	}
	return e.Reason + "\n" + e.Diag.Summary()
}

// SafetyError is returned by Run when the simulation completed but the
// invariant checker recorded violations: the run is functionally finished
// yet provably unsafe (mutual exclusion, OMU exclusivity, or barrier-epoch
// separation was broken along the way).
type SafetyError struct {
	Violations []fault.Violation
	// Flight is the flight-recorder tail at completion (see LivenessError).
	Flight []obs.FlightEvent
}

func (e *SafetyError) Error() string {
	if len(e.Violations) == 0 {
		return "machine: safety violations recorded"
	}
	return fmt.Sprintf("machine: %d safety violation(s), first: %s",
		len(e.Violations), e.Violations[0].String())
}

// PanicError is returned by Run when a machine component (slice, directory,
// network — not a thread body, which is recovered separately) panicked
// mid-event. As on every error return of Run, the simulated threads are torn
// down so they do not leak; the machine must be discarded.
type PanicError struct {
	Value any
	Stack string
	// Flight is the flight-recorder tail at the panic (see LivenessError).
	Flight []obs.FlightEvent
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("machine: component panicked: %v", e.Value)
}

// CancelError is returned by RunCtx when the caller's context ended before
// the simulation finished. It is an abandonment, not a verdict: the machine
// was torn down mid-flight and its partial statistics mean nothing. Cause is
// the context's error (context.Canceled or context.DeadlineExceeded), so
// errors.Is(err, context.Canceled) works through the wrapper.
type CancelError struct {
	Cause error
	At    sim.Time // simulated cycle at which the run was abandoned
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("machine: run cancelled at cycle %d: %v", e.At, e.Cause)
}

func (e *CancelError) Unwrap() error { return e.Cause }
