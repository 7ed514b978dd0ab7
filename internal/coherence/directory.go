package coherence

import (
	"fmt"

	"misar/internal/bitset"
	"misar/internal/memory"
	"misar/internal/sim"
)

// DirConfig holds LLC-slice timing.
type DirConfig struct {
	LLCLatency sim.Time // directory/LLC access latency charged per transaction
	MemLatency sim.Time // extra latency when a line is touched for the first time
}

// DefaultDirConfig mirrors a ~8-cycle LLC slice with ~90-cycle DRAM fills.
func DefaultDirConfig() DirConfig {
	return DirConfig{LLCLatency: 8, MemLatency: 90}
}

// DirStats counts directory activity.
type DirStats struct {
	GetS, GetX    uint64
	Grants        uint64
	InvSent       uint64
	FwdSent       uint64
	Writebacks    uint64
	ColdMisses    uint64
	Conflicts     uint64 // requests that queued behind a busy line
	MaxQueueDepth int
}

type dirState uint8

const (
	dirInvalid dirState = iota
	dirShared
	dirExclusive
)

// txnKind distinguishes demand transactions from MSA grant transactions.
type txnKind uint8

const (
	txnGetS txnKind = iota
	txnGetX
	txnGrant  // MSA-initiated exclusive grant with HWSync bit (§5)
	txnRevoke // MSA-initiated invalidation of all copies (standby revocation)
)

type txn struct {
	kind   txnKind
	core   int
	onDone func()
}

type dirEntry struct {
	// d and line are fixed at creation so the entry itself can be the
	// argument of the static start-transaction event handler.
	d    *Directory
	line memory.Addr

	state   dirState
	owner   int
	sharers bitset.Set // one bit per core, sized to the machine's tile count

	busy       bool
	cur        *txn
	waitq      []*txn
	pendingInv int
	ownerGone  bool
	awaitingWB bool
}

// Directory is the home-tile controller for all lines mapping to one tile:
// it owns the LLC slice's directory state and serializes transactions per
// line.
type Directory struct {
	tile   int
	tiles  int
	cfg    DirConfig
	engine *sim.Engine
	send   SendFunc
	lines  map[memory.Addr]*dirEntry
	// txnFree recycles transaction records; a line's current transaction
	// returns to the list when it concludes.
	txnFree []*txn
	// pool supplies outgoing message records (nil: plain allocation).
	pool  *MsgPool
	stats DirStats
	// extraLat, when installed, returns extra cycles to charge a transaction
	// before it starts (fault-campaign delayed coherence replies). Kept as a
	// plain func so the package stays decoupled from the injector.
	extraLat func() sim.Time
}

// SetMsgPool makes outgoing messages come from p (shared with the L1s; see
// L1.SetMsgPool).
func (d *Directory) SetMsgPool(p *MsgPool) { d.pool = p }

// SetExtraLatency installs a per-transaction extra-latency hook (nil
// removes it). The delay lands before the transaction starts, so per-line
// serialization and the reply protocol are unaffected — grants,
// invalidations, and fills simply arrive later.
func (d *Directory) SetExtraLatency(fn func() sim.Time) { d.extraLat = fn }

// NewDirectory builds the controller for one tile.
func NewDirectory(tile, tiles int, cfg DirConfig, engine *sim.Engine, send SendFunc) *Directory {
	return &Directory{
		tile: tile, tiles: tiles, cfg: cfg,
		engine: engine, send: send,
		lines: make(map[memory.Addr]*dirEntry),
	}
}

// Stats returns a snapshot of the directory statistics.
func (d *Directory) Stats() DirStats { return d.stats }

// IsExclusiveAt reports whether line is recorded as owned (E or M) by core.
// The MSA, co-located with this directory, uses it to decide whether a
// standby lock entry may still be silently re-acquired (§5).
func (d *Directory) IsExclusiveAt(line memory.Addr, core int) bool {
	e, ok := d.lines[memory.LineOf(line)]
	return ok && e.state == dirExclusive && e.owner == core
}

func (d *Directory) entry(line memory.Addr) (*dirEntry, bool) {
	e, ok := d.lines[line]
	if !ok {
		e = &dirEntry{d: d, line: line, sharers: bitset.New(d.tiles)}
		d.lines[line] = e
		d.stats.ColdMisses++
	}
	return e, !ok
}

// newTxn builds a transaction record, reusing a concluded one when possible.
func (d *Directory) newTxn(kind txnKind, core int, onDone func()) *txn {
	if k := len(d.txnFree); k > 0 {
		t := d.txnFree[k-1]
		d.txnFree[k-1] = nil
		d.txnFree = d.txnFree[:k-1]
		*t = txn{kind: kind, core: core, onDone: onDone}
		return t
	}
	return &txn{kind: kind, core: core, onDone: onDone}
}

// Handle processes a coherence message addressed to this home tile.
func (d *Directory) Handle(m *Msg) {
	line := memory.LineOf(m.Line)
	if memory.HomeOf(line, d.tiles) != d.tile {
		panic(fmt.Sprintf("coherence: tile %d is not home of %#x", d.tile, line))
	}
	switch m.Kind {
	case ReqGetS:
		d.stats.GetS++
		d.admit(line, d.newTxn(txnGetS, m.Core, nil))
	case ReqGetX:
		d.stats.GetX++
		d.admit(line, d.newTxn(txnGetX, m.Core, nil))
	case ReqPutS:
		d.handlePutS(line, m.Core)
	case ReqPutE, ReqPutM:
		if m.Kind == ReqPutM {
			d.stats.Writebacks++
		}
		d.handlePutEM(line, m.Core)
	case MsgInvAck:
		d.handleInvAck(line)
	case MsgFwdAckS:
		d.handleFwdAckS(line, m.Core)
	case MsgFwdAckI:
		d.handleFwdAckI(line)
	case MsgFwdMiss:
		d.handleFwdMiss(line)
	default:
		panic(fmt.Sprintf("coherence: directory %d got unexpected %v", d.tile, m.Kind))
	}
}

// GrantExclusive asks the directory to move line into core's L1 in Exclusive
// state with the HWSync bit set, invalidating or recalling other copies.
// onDone (may be nil) runs when the grant completes. Used by the MSA when it
// hands a lock to a core (§5).
func (d *Directory) GrantExclusive(line memory.Addr, core int, onDone func()) {
	d.stats.Grants++
	d.admit(memory.LineOf(line), d.newTxn(txnGrant, core, onDone))
}

// Revoke invalidates every cached copy of line, leaving it uncached. onDone
// (may be nil) runs when no copy remains. The MSA uses it before promoting a
// waiter past a standby lock entry (closing the silent re-acquire window)
// and before deallocating an entry whose HWSync block may be live.
func (d *Directory) Revoke(line memory.Addr, onDone func()) {
	d.admit(memory.LineOf(line), d.newTxn(txnRevoke, -1, onDone))
}

// admit queues or starts a transaction, charging LLC (and cold-miss) latency
// before processing begins.
func (d *Directory) admit(line memory.Addr, t *txn) {
	e, cold := d.entry(line)
	if e.busy {
		d.stats.Conflicts++
		e.waitq = append(e.waitq, t)
		if len(e.waitq) > d.stats.MaxQueueDepth {
			d.stats.MaxQueueDepth = len(e.waitq)
		}
		return
	}
	e.busy = true
	e.cur = t
	lat := d.cfg.LLCLatency
	if cold {
		lat += d.cfg.MemLatency
	}
	if d.extraLat != nil {
		lat += d.extraLat()
	}
	d.engine.AfterCall(lat, dirStart, e, d.tile)
}

// dirStart is the static start-of-transaction event handler; arg is the
// *dirEntry. At most one such event per entry is ever in flight: admit
// schedules it only on the idle→busy transition and conclude only when
// handing the line to the next queued transaction.
func dirStart(arg any) {
	e := arg.(*dirEntry)
	e.d.start(e.line, e)
}

// start runs the admitted transaction against the entry's stable state.
func (d *Directory) start(line memory.Addr, e *dirEntry) {
	t := e.cur
	switch e.state {
	case dirInvalid:
		// MESI E optimization: first requester gets Exclusive even on GetS.
		d.finishExclusive(line, e)
	case dirShared:
		if t.kind == txnGetS {
			e.sharers.Add(t.core)
			d.respond(line, e, RspDataS)
			return
		}
		// GetX/grant: invalidate all sharers except the requester.
		// A revoke (core == -1) invalidates everyone.
		invs := e.sharers.Count()
		if e.sharers.Has(t.core) {
			invs--
		}
		if invs == 0 {
			d.finishExclusive(line, e)
			return
		}
		e.pendingInv = invs
		e.sharers.ForEach(func(c int) {
			if c == t.core {
				return
			}
			d.stats.InvSent++
			d.send(c, d.pool.Get(Msg{Kind: MsgInv, Line: line}))
		})
	case dirExclusive:
		if e.owner == t.core {
			// Degenerate re-request (e.g. a grant to the current owner, or a
			// demand response racing an earlier grant): re-grant Exclusive.
			d.finishExclusive(line, e)
			return
		}
		intent := FwdInvalidate
		if t.kind == txnGetS {
			intent = FwdDowngrade
		}
		// Note: ownerGone may already be true if the owner's writeback
		// arrived between admission and start; the Fwd below will then miss
		// and the FwdMiss handler completes the transaction. The flags are
		// cleared in respond(), never here.
		d.stats.FwdSent++
		d.send(e.owner, d.pool.Get(Msg{Kind: MsgFwd, Line: line, Intent: intent}))
	}
}

// finishExclusive completes the current transaction. For demand and grant
// transactions the line is granted exclusively to the requester; a revoke
// leaves the line uncached.
func (d *Directory) finishExclusive(line memory.Addr, e *dirEntry) {
	t := e.cur
	if t.kind == txnRevoke {
		e.state = dirInvalid
		e.owner = 0
		e.sharers.Clear()
		d.conclude(line, e, nil)
		return
	}
	e.state = dirExclusive
	e.owner = t.core
	e.sharers.Clear()
	e.sharers.Add(t.core)
	d.respond(line, e, RspDataE)
}

// respond sends the data grant for the current transaction and unbusies the
// line, starting the next queued transaction if any.
func (d *Directory) respond(line memory.Addr, e *dirEntry, kind MsgKind) {
	t := e.cur
	msg := d.pool.Get(Msg{Kind: kind, Line: line, Core: t.core})
	if t.kind == txnGrant {
		msg.Grant = true
		msg.HWSync = true
	}
	d.conclude(line, e, msg)
}

// conclude finishes the current transaction: deliver the response (if any),
// run the completion callback, and start the next queued transaction.
func (d *Directory) conclude(line memory.Addr, e *dirEntry, msg *Msg) {
	t := e.cur
	if msg != nil {
		d.send(t.core, msg)
	}
	if t.onDone != nil {
		t.onDone()
	}
	*t = txn{} // drop the callback before the record re-enters the pool
	d.txnFree = append(d.txnFree, t)
	e.busy = false
	e.cur = nil
	e.pendingInv = 0
	e.ownerGone = false
	e.awaitingWB = false
	if len(e.waitq) > 0 {
		next := e.waitq[0]
		e.waitq[0] = nil
		e.waitq = e.waitq[1:]
		e.busy = true
		e.cur = next
		d.engine.AfterCall(d.cfg.LLCLatency, dirStart, e, d.tile)
	}
}

func (d *Directory) handlePutS(line memory.Addr, core int) {
	e, ok := d.lines[line]
	if !ok {
		return
	}
	e.sharers.Remove(core)
	if !e.busy && e.state == dirShared && e.sharers.Empty() {
		e.state = dirInvalid
	}
}

func (d *Directory) handlePutEM(line memory.Addr, core int) {
	e, ok := d.lines[line]
	if !ok || e.state != dirExclusive || e.owner != core {
		return // stale eviction notice; benign
	}
	if e.busy {
		// The current transaction's Fwd will miss at this (former) owner.
		e.ownerGone = true
		e.sharers.Remove(core)
		if e.awaitingWB {
			e.awaitingWB = false
			d.finishExclusive(line, e)
		}
		return
	}
	e.state = dirInvalid
	e.sharers.Clear()
}

func (d *Directory) handleInvAck(line memory.Addr) {
	e := d.mustBusy(line, "InvAck")
	e.pendingInv--
	if e.pendingInv == 0 {
		d.finishExclusive(line, e)
	}
}

func (d *Directory) handleFwdAckS(line memory.Addr, oldOwner int) {
	e := d.mustBusy(line, "FwdAckS")
	t := e.cur
	e.state = dirShared
	e.sharers.Clear()
	e.sharers.Add(oldOwner)
	e.sharers.Add(t.core)
	d.respond(line, e, RspDataS)
}

func (d *Directory) handleFwdAckI(line memory.Addr) {
	e := d.mustBusy(line, "FwdAckI")
	d.finishExclusive(line, e)
}

func (d *Directory) handleFwdMiss(line memory.Addr) {
	e := d.mustBusy(line, "FwdMiss")
	if e.ownerGone {
		d.finishExclusive(line, e)
		return
	}
	// The owner's writeback is still in flight; complete when it arrives.
	e.awaitingWB = true
}

func (d *Directory) mustBusy(line memory.Addr, what string) *dirEntry {
	e, ok := d.lines[line]
	if !ok || !e.busy {
		panic(fmt.Sprintf("coherence: directory %d got %s for idle line %#x", d.tile, what, line))
	}
	return e
}
