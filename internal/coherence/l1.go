package coherence

import (
	"fmt"

	"misar/internal/memory"
	"misar/internal/sim"
)

// LineState is the MESI state of an L1 line.
type LineState uint8

const (
	Invalid LineState = iota
	Shared
	Exclusive
	Modified
)

func (s LineState) String() string {
	return [...]string{"I", "S", "E", "M"}[s]
}

// AccessKind distinguishes the three core memory operations.
type AccessKind uint8

const (
	AccLoad AccessKind = iota
	AccStore
	AccRMW
)

// RMWFunc performs an atomic read-modify-write against the functional store
// at commit time and returns the value the instruction yields (e.g. the old
// value for fetch-and-add, 0/1 for CAS success).
type RMWFunc func(st *memory.Store, addr memory.Addr) uint64

// SendFunc transmits a coherence message to a tile; wired by the machine.
type SendFunc func(dst int, m *Msg)

// L1Config describes one private cache.
type L1Config struct {
	Sets, Ways int
	HitLatency sim.Time
	// AtomicExtra is the additional latency of an atomic read-modify-write
	// over a plain access: pipeline serialization, store-buffer drain, and
	// the locked operation itself (~12 cycles on contemporary cores).
	AtomicExtra sim.Time
}

// DefaultL1Config is a 32 KiB, 8-way, 64 B-line cache with 2-cycle hits and
// 12-cycle extra atomic-RMW cost.
func DefaultL1Config() L1Config {
	return L1Config{Sets: 64, Ways: 8, HitLatency: 2, AtomicExtra: 12}
}

// L1Stats counts cache activity.
type L1Stats struct {
	Loads, Stores, RMWs   uint64
	Hits, Misses          uint64
	Evictions, Writebacks uint64
	InvReceived           uint64
	FwdReceived           uint64
	HWSyncSet             uint64
	HWSyncCleared         uint64
}

type l1Line struct {
	tag    memory.Addr // line address; valid iff state != Invalid
	state  LineState
	hwsync bool
	lru    uint64
}

type pendingOp struct {
	addr     memory.Addr
	kind     AccessKind
	storeVal uint64
	rmw      RMWFunc
	done     func(val uint64)
}

// L1 is a private cache controller. It supports one outstanding demand miss
// (the owning core blocks on memory operations) while continuing to service
// invalidations, recalls, and unsolicited HWSync grant fills.
type L1 struct {
	core   int
	tiles  int
	cfg    L1Config
	engine *sim.Engine
	send   SendFunc
	store  *memory.Store
	sets   [][]l1Line
	tick   uint64
	pend   *pendingOp
	// pendBuf backs pend: with one outstanding access per L1, the pending
	// miss never needs a fresh allocation.
	pendBuf pendingOp
	// compVal/compDone park a committed operation's result across its
	// completion-latency event; l1Complete drops the reference when it
	// fires, so a finished access pins nothing.
	compVal  uint64
	compDone func(val uint64)
	// pool supplies outgoing message records (nil: plain allocation).
	pool  *MsgPool
	stats L1Stats

	// acceptHWSync, when set, is consulted before installing the HWSync bit
	// from an MSA grant fill. The core uses it to drop grants whose
	// requesting thread has since been context-switched away (the bit would
	// otherwise let an unrelated thread silently acquire the lock).
	acceptHWSync func(line memory.Addr) bool
}

// SetAcceptHWSync installs the grant-bit admission hook.
func (c *L1) SetAcceptHWSync(f func(line memory.Addr) bool) { c.acceptHWSync = f }

// SetMsgPool makes outgoing messages come from p (the machine shares one
// pool across all controllers and recycles each message after delivery).
func (c *L1) SetMsgPool(p *MsgPool) { c.pool = p }

// ClearHWSyncLine drops the HWSync bit of one line, if present. The core
// calls this when an UNLOCK response indicates the lock was handed to a
// waiter — the local bit must not permit a silent re-acquire afterwards.
func (c *L1) ClearHWSyncLine(line memory.Addr) {
	if l := c.lookup(memory.LineOf(line)); l != nil {
		c.clearHWSync(l)
	}
}

// ClearAllHWSync drops every HWSync bit in the cache. The core calls this on
// a context switch: the bit means "the thread on this core may silently
// re-acquire this lock", which must not survive a thread change.
func (c *L1) ClearAllHWSync() {
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].state != Invalid {
				c.clearHWSync(&c.sets[s][w])
			}
		}
	}
}

// NewL1 builds a cache for the given core (= tile) id.
func NewL1(core, tiles int, cfg L1Config, engine *sim.Engine, store *memory.Store, send SendFunc) *L1 {
	sets := make([][]l1Line, cfg.Sets)
	for i := range sets {
		sets[i] = make([]l1Line, cfg.Ways)
	}
	return &L1{
		core: core, tiles: tiles, cfg: cfg,
		engine: engine, store: store, send: send, sets: sets,
	}
}

// Stats returns a snapshot of the cache statistics.
func (c *L1) Stats() L1Stats { return c.stats }

func (c *L1) setOf(line memory.Addr) int {
	return int((uint64(line) / memory.LineSize) % uint64(c.cfg.Sets))
}

// lookup returns the way holding line, or nil.
func (c *L1) lookup(line memory.Addr) *l1Line {
	set := c.sets[c.setOf(line)]
	for i := range set {
		if set[i].state != Invalid && set[i].tag == line {
			return &set[i]
		}
	}
	return nil
}

func (c *L1) touch(l *l1Line) {
	c.tick++
	l.lru = c.tick
}

// State reports the MESI state of the line holding addr (Invalid if absent).
func (c *L1) State(addr memory.Addr) LineState {
	if l := c.lookup(memory.LineOf(addr)); l != nil {
		return l.state
	}
	return Invalid
}

// HWSyncHit reports whether addr's line is present, writable (E or M), and
// carries the HWSync bit — the §5 proxy for "can re-acquire this lock
// silently".
func (c *L1) HWSyncHit(addr memory.Addr) bool {
	l := c.lookup(memory.LineOf(addr))
	return l != nil && l.hwsync && (l.state == Exclusive || l.state == Modified)
}

// Access starts a memory operation. done is invoked (with the load/RMW
// result) when the operation commits; for stores the value is the stored
// value. Only one Access may be outstanding per L1.
func (c *L1) Access(addr memory.Addr, kind AccessKind, storeVal uint64, rmw RMWFunc, done func(val uint64)) {
	if c.pend != nil {
		panic(fmt.Sprintf("coherence: core %d issued a second outstanding access", c.core))
	}
	switch kind {
	case AccLoad:
		c.stats.Loads++
	case AccStore:
		c.stats.Stores++
	case AccRMW:
		c.stats.RMWs++
	}
	line := memory.LineOf(addr)
	l := c.lookup(line)
	if l != nil && (kind == AccLoad || l.state == Exclusive || l.state == Modified) {
		// Hit with sufficient permission.
		c.stats.Hits++
		c.touch(l)
		val := c.commit(l, addr, kind, storeVal, rmw)
		c.complete(c.opLatency(kind), val, done)
		return
	}
	// Miss or upgrade.
	c.stats.Misses++
	c.pendBuf = pendingOp{addr: addr, kind: kind, storeVal: storeVal, rmw: rmw, done: done}
	c.pend = &c.pendBuf
	req := ReqGetS
	if kind != AccLoad {
		req = ReqGetX
	}
	home := memory.HomeOf(line, c.tiles)
	c.send(home, c.pool.Get(Msg{Kind: req, Line: line, Core: c.core}))
}

// complete schedules done(val) after the operation's completion latency
// without allocating: the pair is parked on the controller (legal because at
// most one access is in flight) and handed to the static l1Complete handler.
func (c *L1) complete(after sim.Time, val uint64, done func(uint64)) {
	if c.compDone != nil {
		panic(fmt.Sprintf("coherence: core %d completion already pending", c.core))
	}
	c.compVal, c.compDone = val, done
	c.engine.AfterCall(after, l1Complete, c, c.core)
}

func l1Complete(arg any) {
	c := arg.(*L1)
	done, val := c.compDone, c.compVal
	c.compDone = nil
	done(val)
}

// opLatency returns the completion latency charged after commit.
func (c *L1) opLatency(kind AccessKind) sim.Time {
	if kind == AccRMW {
		return c.cfg.HitLatency + c.cfg.AtomicExtra
	}
	return c.cfg.HitLatency
}

// commit performs the functional effect of an operation on a line the cache
// holds with sufficient permission, updating the MESI state for writes.
func (c *L1) commit(l *l1Line, addr memory.Addr, kind AccessKind, storeVal uint64, rmw RMWFunc) uint64 {
	switch kind {
	case AccLoad:
		return c.store.Load(addr)
	case AccStore:
		l.state = Modified
		c.store.Store(addr, storeVal)
		return storeVal
	case AccRMW:
		l.state = Modified
		return rmw(c.store, addr)
	}
	panic("coherence: unknown access kind")
}

// Handle processes a coherence message addressed to this core.
func (c *L1) Handle(m *Msg) {
	switch m.Kind {
	case RspDataS, RspDataE:
		c.fill(m)
	case MsgInv:
		c.stats.InvReceived++
		if l := c.lookup(m.Line); l != nil {
			c.clearHWSync(l)
			l.state = Invalid
		}
		home := memory.HomeOf(m.Line, c.tiles)
		c.send(home, c.pool.Get(Msg{Kind: MsgInvAck, Line: m.Line, Core: c.core}))
	case MsgFwd:
		c.stats.FwdReceived++
		home := memory.HomeOf(m.Line, c.tiles)
		l := c.lookup(m.Line)
		if l == nil || (l.state != Exclusive && l.state != Modified) {
			c.send(home, c.pool.Get(Msg{Kind: MsgFwdMiss, Line: m.Line, Core: c.core}))
			return
		}
		if m.Intent == FwdDowngrade {
			l.state = Shared
			c.send(home, c.pool.Get(Msg{Kind: MsgFwdAckS, Line: m.Line, Core: c.core}))
		} else {
			c.clearHWSync(l)
			l.state = Invalid
			c.send(home, c.pool.Get(Msg{Kind: MsgFwdAckI, Line: m.Line, Core: c.core}))
		}
	default:
		panic(fmt.Sprintf("coherence: L1 %d got unexpected %v", c.core, m.Kind))
	}
}

func (c *L1) clearHWSync(l *l1Line) {
	if l.hwsync {
		l.hwsync = false
		c.stats.HWSyncCleared++
	}
}

// fill installs a granted line. Demand responses (Grant == false) must match
// the pending miss, which they complete. MSA-initiated grant fills
// (Grant == true) install the line and its HWSync bit without completing
// anything; a grant that collides with a pending demand miss on the same
// line is dropped — the demand response follows and supersedes it.
func (c *L1) fill(m *Msg) {
	if m.Grant {
		if c.pend != nil && memory.LineOf(c.pend.addr) == m.Line {
			return
		}
	} else if c.pend == nil || memory.LineOf(c.pend.addr) != m.Line {
		// A stray demand response can only be a model bug.
		panic(fmt.Sprintf("coherence: L1 %d unsolicited demand fill of %#x", c.core, m.Line))
	}
	solicited := !m.Grant
	l := c.lookup(m.Line)
	if l == nil {
		l = c.victim(m.Line)
		l.tag = m.Line
		l.hwsync = false
	}
	switch m.Kind {
	case RspDataS:
		l.state = Shared
	case RspDataE:
		if l.state != Modified {
			l.state = Exclusive
		}
	}
	if m.HWSync && (c.acceptHWSync == nil || c.acceptHWSync(m.Line)) {
		l.hwsync = true
		c.stats.HWSyncSet++
	}
	c.touch(l)
	if solicited {
		op := *c.pend
		c.pend = nil
		c.pendBuf = pendingOp{} // drop the rmw/done references
		val := c.commit(l, op.addr, op.kind, op.storeVal, op.rmw)
		c.complete(c.opLatency(op.kind), val, op.done)
	}
}

// victim selects and evicts a way in line's set, returning the freed slot.
func (c *L1) victim(line memory.Addr) *l1Line {
	set := c.sets[c.setOf(line)]
	var v *l1Line
	for i := range set {
		if set[i].state == Invalid {
			return &set[i]
		}
		if v == nil || set[i].lru < v.lru {
			v = &set[i]
		}
	}
	c.evict(v)
	return v
}

func (c *L1) evict(l *l1Line) {
	c.stats.Evictions++
	c.clearHWSync(l)
	home := memory.HomeOf(l.tag, c.tiles)
	switch l.state {
	case Shared:
		c.send(home, c.pool.Get(Msg{Kind: ReqPutS, Line: l.tag, Core: c.core}))
	case Exclusive:
		c.send(home, c.pool.Get(Msg{Kind: ReqPutE, Line: l.tag, Core: c.core}))
	case Modified:
		c.stats.Writebacks++
		c.send(home, c.pool.Get(Msg{Kind: ReqPutM, Line: l.tag, Core: c.core}))
	}
	l.state = Invalid
}
