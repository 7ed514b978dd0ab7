package core

import (
	"fmt"

	"misar/internal/bitset"
	"misar/internal/coherence"
	"misar/internal/fault"
	"misar/internal/isa"
	"misar/internal/memory"
	"misar/internal/metrics"
	"misar/internal/obs"
	"misar/internal/sim"
)

// Config selects the accelerator variant under evaluation.
type Config struct {
	// Entries is the per-slice entry count. Negative means unbounded
	// (the paper's MSA-inf configuration).
	Entries int
	// OMUCounters is the per-slice OMU counter count (the paper evaluates
	// four). Ignored when OMUEnabled is false.
	OMUCounters int
	// OMUBloom selects the counting-Bloom-filter OMU variant the paper
	// suggests in §3.2, with OMUHashes hash functions over the same
	// OMUCounters-counter storage budget.
	OMUBloom  bool
	OMUHashes int
	// OMUEnabled selects overflow management. When false the slice models
	// the paper's "without OMU" baseline (Fig. 7): entries are never
	// deallocated, so the first addresses to arrive keep them forever, and
	// overflowing addresses are permanently served in software.
	OMUEnabled bool
	// HWSyncOpt enables the §5 optimization: lock grants ship the lock's
	// cache line in Exclusive state with the HWSync bit, and entries linger
	// in standby so the same core can silently re-acquire.
	HWSyncOpt bool
	// Locks, Barriers, Conds select which synchronization types the slice
	// accelerates (Fig. 9 evaluates lock-only and barrier-only variants).
	// Unsupported types always take the software path.
	Locks, Barriers, Conds bool
	// FixedPriority replaces the NBTC round-robin grant policy with
	// lowest-core-first selection (ablation A3: what the fairness register
	// buys).
	FixedPriority bool
	// UnsafeNoOMUCheck is a TEST-ONLY toggle that skips the OMU activity
	// check on allocation, deliberately breaking the exclusivity property
	// the OMU exists to enforce. It exists so the fault/invariant layer can
	// prove it catches a broken OMU (hardware and software handling the
	// same variable at once) instead of hanging. Never set outside tests.
	UnsafeNoOMUCheck bool
}

// DefaultConfig is the paper's headline MSA/OMU-2 configuration.
func DefaultConfig() Config {
	return Config{
		Entries:     2,
		OMUCounters: 4,
		OMUEnabled:  true,
		HWSyncOpt:   true,
		Locks:       true,
		Barriers:    true,
		Conds:       true,
	}
}

// Stats aggregates one slice's activity. "HW" counts operations the
// accelerator completed; "SW" counts operations steered to the software
// fallback (FAIL responses).
type Stats struct {
	LockHW, LockSW       uint64
	UnlockHW, UnlockSW   uint64
	BarrierHW, BarrierSW uint64
	CondHW, CondSW       uint64
	SilentLocks          uint64 // LOCK_SILENT notifications (HW lock grants)

	Allocs, Deallocs uint64
	Reclaims         uint64 // standby entries reclaimed for a new address
	OMUSteers        uint64 // acquire misses steered to SW by a live counter
	CapacitySteers   uint64 // acquire misses steered to SW by a full MSA
	Aborts           uint64 // operations terminated with ABORT
	Grants           uint64 // HWSync block grants shipped
	Revokes          uint64 // standby revocations issued
}

// HWOps returns the operations completed in hardware.
func (s *Stats) HWOps() uint64 {
	return s.LockHW + s.UnlockHW + s.BarrierHW + s.CondHW + s.SilentLocks
}

// SWOps returns the operations steered to software.
func (s *Stats) SWOps() uint64 {
	return s.LockSW + s.UnlockSW + s.BarrierSW + s.CondSW
}

// Add accumulates other into s.
func (s *Stats) Add(o *Stats) {
	s.LockHW += o.LockHW
	s.LockSW += o.LockSW
	s.UnlockHW += o.UnlockHW
	s.UnlockSW += o.UnlockSW
	s.BarrierHW += o.BarrierHW
	s.BarrierSW += o.BarrierSW
	s.CondHW += o.CondHW
	s.CondSW += o.CondSW
	s.SilentLocks += o.SilentLocks
	s.Allocs += o.Allocs
	s.Deallocs += o.Deallocs
	s.Reclaims += o.Reclaims
	s.OMUSteers += o.OMUSteers
	s.CapacitySteers += o.CapacitySteers
	s.Aborts += o.Aborts
	s.Grants += o.Grants
	s.Revokes += o.Revokes
}

// entry is one MSA entry (paper Fig. 1): type, synchronization address,
// HWQueue bit vector, auxiliary information, and a valid bit. The paper's
// HWQueue holds waiters plus the lock owner; here the owner is held in a
// separate field and `waiters` holds the rest, which is equivalent.
type entry struct {
	valid   bool
	empty   bool // without-OMU: slot permanently bound to addr but inactive
	typ     isa.SyncType
	addr    memory.Addr
	lastUse uint64 // slice op tick, for LRU standby reclaim

	waiters bitset.Set // one bit per waiting core (barriers: arrived cores)
	owner   int        // locks: owning core, -1 when free

	// AuxInfo (paper Fig. 1) — meaning depends on typ:
	goal     int         // barrier: participant count
	pins     int         // lock: condition variables pinning this entry
	lockAddr memory.Addr // cond: associated lock address

	// behalf maps a waiting core to the condition-variable address whose
	// COND_WAIT the eventual lock grant completes (§4.3: the lock home
	// responds directly to the released waiter).
	behalf map[int]memory.Addr

	// §5 standby machinery (locks only).
	standby     bool // free, but standbyCore may silently re-acquire
	standbyCore int  // core holding (or receiving) the HWSync block
	revoking    bool // revocation in flight; promotion deferred
	reclaiming  bool // background revoke-then-free of a standby entry
	grantsOut   int  // block grants still in flight
	draining    bool // tear-down in progress; steer new requests to SW

	// reserved cond-entry machinery (§4.3.1 UNLOCK&PIN handshake).
	reserved  bool
	pinCore   int   // waiter whose UNLOCK&PIN handshake is in flight, -1 none
	pendSig   []int // signaler cores queued while a handshake is in flight
	pendBcast []int
}

// newEntry builds a recyclable entry with its HWQueue vector sized to the
// machine; the vector is cleared, never reallocated, across reuse.
func newEntry(tiles int) *entry {
	return &entry{owner: -1, standbyCore: -1, pinCore: -1, waiters: bitset.New(tiles)}
}

// Slice is one tile's MSA slice plus its OMU.
type Slice struct {
	tile, tiles int
	cfg         Config
	engine      *sim.Engine
	dir         *coherence.Directory

	// sendResp delivers a Resp to a core; sendMsa delivers an MsaMsg to a
	// peer slice. Both are wired by the machine over the NoC.
	sendResp func(core int, r *Resp)
	sendMsa  func(tile int, m *MsaMsg)

	// respPool supplies outgoing responses (nil: plain allocation).
	respPool *RespPool

	entries []*entry
	omu     overflowTracker
	nbtc    int    // next-bit-to-check fairness register (one per slice)
	tick    uint64 // op counter for LRU standby reclaim
	stats   Stats
	flight  *obs.FlightRecorder

	// inj/check are the fault-injection and safety-invariant hooks. Both
	// are nil-receiver-safe (the disabled machine pays one comparison per
	// site, same contract as the metrics instruments below).
	inj     *fault.Injector
	check   *fault.Checker
	lastReq sim.Time // cycle of the last request handled (watchdog diagnosis)

	met sliceMetrics
	// swActive is an exact shadow of the per-address software-activity level,
	// maintained only while metrics are attached. The OMU itself is untagged
	// (that is the point of its hardware economy), so comparing a steer
	// decision against this shadow classifies it as genuine or a false
	// positive from counter aliasing / Bloom collision.
	swActive map[memory.Addr]int
}

// sliceMetrics holds the slice's resolved per-tile instruments. All fields
// are nil when metering is off; every method is nil-receiver safe, so the
// hot paths below record unconditionally.
type sliceMetrics struct {
	allocs, deallocs     *metrics.Counter
	standbys, reclaims   *metrics.Counter
	omuSteers, capSteers *metrics.Counter
	falseSteers          *metrics.Counter
	silentLocks, aborts  *metrics.Counter
	grants, revokes      *metrics.Counter
}

// SetFlight attaches the machine's always-on flight recorder (nil detaches).
// The ring is fixed-size and allocation-free, so it stays attached on every
// run: its tail is dumped into liveness/safety/panic errors, and an enlarged
// ring is the protocol trace (cmd/misar-trace).
func (s *Slice) SetFlight(f *obs.FlightRecorder) { s.flight = f }

// SetInjector attaches the fault injector (nil detaches).
func (s *Slice) SetInjector(i *fault.Injector) { s.inj = i }

// SetChecker attaches the safety-invariant checker (nil detaches).
func (s *Slice) SetChecker(c *fault.Checker) { s.check = c }

// SetRespPool makes outgoing responses come from p (the machine recycles
// each response after the destination core handles it).
func (s *Slice) SetRespPool(p *RespPool) { s.respPool = p }

// SetMetrics resolves this slice's per-tile instruments from reg (nil
// detaches and returns the slice to the zero-cost path).
func (s *Slice) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		s.met = sliceMetrics{}
		s.swActive = nil
		return
	}
	n := func(metric string) string { return metrics.TileName("msa", s.tile, metric) }
	s.met = sliceMetrics{
		allocs:      reg.Counter(n("entry_allocs")),
		deallocs:    reg.Counter(n("entry_deallocs")),
		standbys:    reg.Counter(n("entry_standbys")),
		reclaims:    reg.Counter(n("entry_reclaims")),
		omuSteers:   reg.Counter(n("omu_steers")),
		capSteers:   reg.Counter(n("capacity_steers")),
		falseSteers: reg.Counter(n("omu_false_steers")),
		silentLocks: reg.Counter(n("silent_locks")),
		aborts:      reg.Counter(n("aborts")),
		grants:      reg.Counter(n("grants")),
		revokes:     reg.Counter(n("revokes")),
	}
	s.swActive = make(map[memory.Addr]int)
}

// fl records one flight-ring event: a single ring-slot store
// (obs.FlightRecorder.Record), no allocations; a detached slice (nil ring)
// records nothing.
func (s *Slice) fl(kind obs.FlightKind, addr memory.Addr, core int, arg uint32) {
	s.flight.Record(obs.FlightEvent{
		At: s.engine.Now(), Kind: kind, Tile: int16(s.tile),
		Core: int16(core), Addr: addr, Arg: arg,
	})
}

// NewSlice builds the MSA slice for one tile. dir is the co-located
// directory used for HWSync block grants and revocations.
func NewSlice(tile, tiles int, cfg Config, engine *sim.Engine, dir *coherence.Directory,
	sendResp func(core int, r *Resp), sendMsa func(tile int, m *MsaMsg)) *Slice {
	var omu overflowTracker = NewOMU(cfg.OMUCounters)
	if cfg.OMUBloom {
		omu = NewBloomOMU(cfg.OMUCounters, cfg.OMUHashes)
	}
	s := &Slice{
		tile: tile, tiles: tiles, cfg: cfg, engine: engine, dir: dir,
		sendResp: sendResp, sendMsa: sendMsa,
		omu: omu,
	}
	n := cfg.Entries
	if n < 0 {
		n = 0 // grown on demand
	}
	s.entries = make([]*entry, 0, n)
	for i := 0; i < n; i++ {
		s.entries = append(s.entries, newEntry(tiles))
	}
	return s
}

// Stats returns a snapshot of this slice's counters.
func (s *Slice) Stats() Stats { return s.stats }

// OMUStats exposes the slice's OMU for inspection.
func (s *Slice) OMUStats() OMUStats { return s.omu.Stats() }

// LiveEntries reports how many entries are currently valid.
func (s *Slice) LiveEntries() int {
	n := 0
	for _, e := range s.entries {
		if e.valid {
			n++
		}
	}
	return n
}

func (s *Slice) find(typ isa.SyncType, addr memory.Addr) *entry {
	for _, e := range s.entries {
		if e.valid && !e.empty && e.typ == typ && e.addr == addr {
			s.tick++
			e.lastUse = s.tick
			return e
		}
	}
	return nil
}

func (s *Slice) supports(typ isa.SyncType) bool {
	switch typ {
	case isa.TypeLock:
		return s.cfg.Locks
	case isa.TypeBarrier:
		return s.cfg.Barriers
	case isa.TypeCond:
		return s.cfg.Conds
	}
	return false
}

// tryAllocate returns a fresh entry for addr, or nil when the request must
// be served in software (unsupported type, live OMU counter, or no capacity).
// The caller is responsible for the OMU increment on the nil path.
func (s *Slice) tryAllocate(typ isa.SyncType, addr memory.Addr) *entry {
	if !s.supports(typ) {
		return nil
	}
	if s.cfg.OMUEnabled && !s.cfg.UnsafeNoOMUCheck && s.omu.ActiveSW(addr) {
		s.stats.OMUSteers++
		s.met.omuSteers.Inc()
		s.fl(obs.FSteer, addr, -1, uint32(typ))
		if s.swActive != nil && s.swActive[addr] == 0 {
			s.met.falseSteers.Inc()
		}
		return nil
	}
	// Fault site: steer an otherwise-allocatable acquire as if the OMU had
	// vetoed it. Only meaningful with the OMU: the caller's counter
	// increment then keeps the worlds separated, exactly like a real steer.
	if s.cfg.OMUEnabled && s.inj.ForceSteer() {
		s.stats.OMUSteers++
		s.met.omuSteers.Inc()
		s.fl(obs.FSteer, addr, -1, uint32(typ)|obs.SteerForced)
		return nil
	}
	e := s.boundEntry(typ, addr)
	if e == nil {
		e = s.freeEntry()
	}
	// Fault site: artificial capacity reduction — refuse a free entry as if
	// the slice were smaller than configured.
	if e != nil && s.cfg.OMUEnabled && s.inj.ForceCapacitySteer() {
		e = nil
	}
	if e == nil {
		s.stats.CapacitySteers++
		s.met.capSteers.Inc()
		s.fl(obs.FCapSteer, addr, -1, uint32(typ))
		// Kick off a background reclaim of a standby entry (revoke its
		// HWSync block, then free it) so a future request finds room.
		s.startReclaim(nil)
		return nil
	}
	s.stats.Allocs++
	s.met.allocs.Inc()
	s.tick++
	e.waiters.Clear()
	*e = entry{valid: true, typ: typ, addr: addr, owner: -1, standbyCore: -1, pinCore: -1,
		lastUse: s.tick, waiters: e.waiters}
	s.fl(obs.FAlloc, addr, -1, uint32(typ))
	// Invariant: no thread may be active in the software path of addr while
	// an MSA entry goes live for it (OMU exclusivity, PAPER.md §3.2).
	s.check.HWAlloc(addr)
	return e
}

// boundEntry returns the empty slot permanently bound to (typ, addr) in
// without-OMU mode, if any.
func (s *Slice) boundEntry(typ isa.SyncType, addr memory.Addr) *entry {
	if s.cfg.OMUEnabled {
		return nil
	}
	for _, e := range s.entries {
		if e.valid && e.empty && e.typ == typ && e.addr == addr {
			return e
		}
	}
	return nil
}

// freeEntry finds an invalid entry, reclaims a lapsed standby entry, or
// grows the table in the unbounded (MSA-inf) configuration.
func (s *Slice) freeEntry() *entry {
	for _, e := range s.entries {
		if !e.valid {
			return e
		}
	}
	if s.cfg.Entries < 0 {
		e := newEntry(s.tiles)
		s.entries = append(s.entries, e)
		return e
	}
	if !s.cfg.OMUEnabled {
		return nil // entries are permanent without the OMU
	}
	// A standby lock entry whose holder's line is no longer writable can
	// never be silently re-acquired again, so it is safe to reclaim.
	for _, e := range s.entries {
		if e.valid && e.typ == isa.TypeLock && e.standby && !e.revoking &&
			!e.draining && e.grantsOut == 0 && e.pins == 0 && e.waiters.Empty() &&
			!s.dir.IsExclusiveAt(memory.LineOf(e.addr), e.standbyCore) {
			s.stats.Reclaims++
			s.stats.Deallocs++
			s.met.reclaims.Inc()
			s.met.deallocs.Inc()
			s.fl(obs.FFree, e.addr, e.standbyCore, uint32(e.typ))
			e.valid = false
			return e
		}
	}
	return nil
}

// hasFreeSlot reports whether an invalid entry is available (unbounded
// slices always have room).
func (s *Slice) hasFreeSlot() bool {
	if s.cfg.Entries < 0 {
		return true
	}
	for _, e := range s.entries {
		if !e.valid {
			return true
		}
	}
	return false
}

func (s *Slice) dealloc(e *entry) {
	if !s.cfg.OMUEnabled {
		// Without the OMU entries are permanent: the slot stays bound to
		// its address forever (paper Fig. 7 "without OMU" baseline) but
		// becomes inactive, so the next acquire re-allocates it and runs
		// the full allocation protocol (e.g. the cond-var pin handshake).
		e.waiters.Clear()
		*e = entry{valid: true, empty: true, typ: e.typ, addr: e.addr,
			owner: -1, standbyCore: -1, pinCore: -1, waiters: e.waiters}
		return
	}
	s.stats.Deallocs++
	s.met.deallocs.Inc()
	s.fl(obs.FFree, e.addr, -1, uint32(e.typ))
	e.valid = false
}

func (s *Slice) respond(core int, op isa.SyncOp, addr memory.Addr, res isa.Result, reason AbortReason) {
	s.reply(Resp{Op: op, Addr: addr, Core: core, Result: res, Reason: reason})
}

// reply is the one slice-to-core response path: it counts aborts and
// records the FMsaResp flight event before handing r to send.
func (s *Slice) reply(r Resp) {
	if r.Result == isa.Abort {
		s.stats.Aborts++
		s.met.aborts.Inc()
	}
	s.fl(obs.FMsaResp, r.Addr, r.Core, uint32(r.Op)<<8|uint32(r.Result))
	s.send(r.Core, s.respPool.Get(r))
}

// delayedResp carries a held-back acknowledgment (fault path only; the
// allocation happens only when a fault actually fires).
type delayedResp struct {
	s    *Slice
	core int
	r    *Resp
}

func sliceSendDelayed(arg any) {
	d := arg.(*delayedResp)
	d.s.sendResp(d.core, d.r)
}

// send delivers one acknowledgment to a core, optionally held back by the
// fault injector. All slice-to-core responses funnel through here so the
// ack-delay site covers grants, aborts, and ClearHWSync handoffs alike.
func (s *Slice) send(core int, r *Resp) {
	if d := s.inj.AckDelay(); d > 0 {
		s.engine.AfterCall(d, sliceSendDelayed, &delayedResp{s: s, core: core, r: r}, s.tile)
		return
	}
	s.sendResp(core, r)
}

func (s *Slice) omuInc(addr memory.Addr) {
	if s.cfg.OMUEnabled {
		s.omu.Inc(addr)
		s.check.SWEnter(addr)
		if s.swActive != nil {
			s.swActive[addr]++
		}
	}
}

func (s *Slice) omuAdd(addr memory.Addr, n int) {
	for i := 0; i < n; i++ {
		s.omuInc(addr)
	}
}

func (s *Slice) omuDec(addr memory.Addr) {
	if s.cfg.OMUEnabled {
		s.omu.Dec(addr)
		s.check.SWExit(addr)
		if s.swActive != nil {
			if s.swActive[addr] <= 1 {
				delete(s.swActive, addr)
			} else {
				s.swActive[addr]--
			}
		}
	}
}

// HandleReq processes a synchronization request arriving from a core.
func (s *Slice) HandleReq(r *Req) {
	if memory.HomeOf(r.Addr, s.tiles) != s.tile {
		panic(fmt.Sprintf("core: tile %d is not home of sync addr %#x", s.tile, r.Addr))
	}
	s.lastReq = s.engine.Now()
	s.fl(obs.FMsaReq, r.Addr, r.Core, uint32(r.Op))
	// Fault site: spurious un-steer — run a standby-reclaim sweep with no
	// capacity pressure, revoking a silent holder's re-acquire privilege.
	if s.inj.ForceEvict() {
		s.startReclaim(nil)
	}
	switch r.Op {
	case isa.OpLock:
		s.handleLock(r)
	case isa.OpUnlock:
		s.handleUnlock(r)
	case isa.OpBarrier:
		s.handleBarrier(r)
	case isa.OpCondWait:
		s.handleCondWait(r)
	case isa.OpCondSignal:
		s.handleCondSignal(r, false)
	case isa.OpCondBcast:
		s.handleCondSignal(r, true)
	case isa.OpFinish:
		s.omuDec(r.Addr)
	case isa.OpSuspend:
		s.handleSuspend(r)
	case isa.OpLockSilent:
		s.handleLockSilent(r)
	default:
		panic(fmt.Sprintf("core: unknown sync op %v", r.Op))
	}
}

// --- Locks (§4.1) ---

func (s *Slice) handleLock(r *Req) {
	e := s.find(isa.TypeLock, r.Addr)
	if e == nil {
		e = s.tryAllocate(isa.TypeLock, r.Addr)
		if e == nil {
			s.stats.LockSW++
			s.omuInc(r.Addr)
			s.respond(r.Core, isa.OpLock, r.Addr, isa.Fail, ReasonNone)
			return
		}
	}
	if e.draining {
		// Entry tear-down in progress (post-abort): steer to software; the
		// OMU keeps the worlds separate.
		s.stats.LockSW++
		s.omuInc(r.Addr)
		s.respond(r.Core, isa.OpLock, r.Addr, isa.Fail, ReasonNone)
		return
	}
	s.stats.LockHW++
	s.enqueueLocker(e, r.Core, isa.OpLock, r.Addr)
}

// enqueueLocker adds core to the lock entry's queue and grants immediately
// when possible. respOp/respAddr identify the instruction the eventual
// grant completes (LOCK on the lock, or COND_WAIT on a condition variable).
func (s *Slice) enqueueLocker(e *entry, core int, respOp isa.SyncOp, respAddr memory.Addr) {
	if e.owner == core {
		panic(fmt.Sprintf("core: core %d re-locking %#x while owning it", core, e.addr))
	}
	if respOp == isa.OpCondWait {
		if e.behalf == nil {
			e.behalf = make(map[int]memory.Addr)
		}
		e.behalf[core] = respAddr
	}
	e.waiters.Add(core)
	if e.owner == -1 && !e.revoking {
		if s.cfg.HWSyncOpt && e.standby && e.standbyCore != core {
			// A silent holder may exist: revoke its block before granting.
			// Any LOCK_SILENT it sent is point-to-point ordered before its
			// InvAck, so it will be observed before the revocation
			// completes.
			e.revoking = true
			s.stats.Revokes++
			s.met.revokes.Inc()
			s.fl(obs.FRevoke, e.addr, e.standbyCore, 0)
			s.dir.Revoke(memory.LineOf(e.addr), func() { s.afterRevoke(e) })
			return
		}
		e.standby = false
		s.promote(e)
	}
	// Otherwise the reply is held: the core stalls until promoted (§4.1).
}

func (s *Slice) afterRevoke(e *entry) {
	e.revoking = false
	e.standby = false
	if e.draining {
		s.finishDrain(e)
		return
	}
	if e.reclaiming {
		e.reclaiming = false
		if e.owner == -1 && e.waiters.Empty() && e.pins == 0 {
			// No one slipped in during the revocation: free the slot.
			s.stats.Reclaims++
			s.met.reclaims.Inc()
			s.dealloc(e)
			return
		}
		// The standby holder silently re-acquired, or waiters arrived:
		// the entry stays live and the reclaim is abandoned.
	}
	s.promote(e)
}

// startReclaim picks the least-recently-used idle standby lock entry
// (skipping `except`, typically the entry that just entered standby) and
// revokes its HWSync block in the background; once no silent re-acquire is
// possible the entry is freed. Requests hitting the entry meanwhile are
// queued normally, which simply cancels the reclaim.
func (s *Slice) startReclaim(except *entry) {
	if !s.cfg.OMUEnabled || !s.cfg.HWSyncOpt {
		return
	}
	var victim *entry
	for _, e := range s.entries {
		if e == except {
			continue
		}
		if e.valid && e.typ == isa.TypeLock && e.standby && !e.revoking &&
			!e.reclaiming && !e.draining && e.grantsOut == 0 && e.pins == 0 &&
			e.owner == -1 && e.waiters.Empty() {
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
	}
	if victim == nil {
		return
	}
	victim.revoking = true
	victim.reclaiming = true
	s.stats.Revokes++
	s.met.revokes.Inc()
	s.fl(obs.FReclaim, victim.addr, victim.standbyCore, uint32(victim.typ))
	s.dir.Revoke(memory.LineOf(victim.addr), func() { s.afterRevoke(victim) })
}

// pickWaiter selects the next core to grant: round-robin from the slice's
// NBTC register (§4.1 fairness), or lowest-first under FixedPriority.
func (s *Slice) pickWaiter(waiters bitset.Set) int {
	if s.cfg.FixedPriority {
		if c := waiters.Next(0); c >= 0 {
			return c
		}
		panic("core: pickWaiter on empty set")
	}
	c := waiters.Next(s.nbtc)
	if c < 0 {
		c = waiters.Next(0)
	}
	if c < 0 {
		panic("core: pickWaiter on empty set")
	}
	s.nbtc = (c + 1) % s.tiles
	return c
}

// promote grants the lock to the next waiter, chosen round-robin starting at
// the slice's NBTC register (§4.1 fairness).
func (s *Slice) promote(e *entry) {
	if e.owner != -1 || e.revoking || e.draining || e.waiters.Empty() {
		return
	}
	next := s.pickWaiter(e.waiters)
	e.waiters.Remove(next)
	e.owner = next
	s.check.LockAcquired(e.addr, next, fault.WorldHW)
	respOp, respAddr := isa.OpLock, e.addr
	if a, ok := e.behalf[next]; ok {
		respOp, respAddr = isa.OpCondWait, a
		delete(e.behalf, next)
	}
	s.respond(next, respOp, respAddr, isa.Success, ReasonNone)
	if s.cfg.HWSyncOpt {
		// Ship the lock's line in Exclusive state with the HWSync bit (§5).
		e.standbyCore = next
		e.grantsOut++
		s.stats.Grants++
		s.met.grants.Inc()
		s.fl(obs.FGrant, e.addr, next, 0)
		s.dir.GrantExclusive(memory.LineOf(e.addr), next, func() {
			e.grantsOut--
			if e.draining && e.grantsOut == 0 && !e.revoking {
				s.finishDrain(e)
			}
		})
	}
}

func (s *Slice) handleUnlock(r *Req) {
	e := s.find(isa.TypeLock, r.Addr)
	if e == nil || e.draining {
		// Default-to-software (§3.1): the lock is software-managed.
		s.stats.UnlockSW++
		// This FAIL is the protocol's software release point (the OMU
		// decrement below ends the software episode), so register the
		// release here rather than thread-side: a subsequent hardware grant
		// can be processed at this slice before the FAIL response reaches
		// the unlocking thread.
		s.check.LockReleased(r.Addr, fault.WorldSW)
		s.omuDec(r.Addr)
		s.respond(r.Core, isa.OpUnlock, r.Addr, isa.Fail, ReasonNone)
		return
	}
	s.stats.UnlockHW++
	if e.owner == r.Core {
		e.owner = -1
		s.check.LockReleased(r.Addr, fault.WorldHW)
		handoff := !e.waiters.Empty()
		// On a handoff the unlocker must drop its HWSync bit: the lock is
		// about to belong to someone else, so a silent re-acquire from the
		// stale bit would break mutual exclusion.
		s.reply(Resp{Op: isa.OpUnlock, Addr: r.Addr, Core: r.Core,
			Result: isa.Success, ClearHWSync: handoff})
		if handoff {
			s.promote(e)
		} else {
			s.maybeRetire(e)
		}
		return
	}
	// UNLOCK from a core whose HWQueue bit is not set: the owning thread
	// migrated (§4.1.2). Reply SUCCESS to the unlocker, ABORT every waiter
	// to the software path, charge the OMU for each, and tear down.
	s.check.LockReleased(r.Addr, fault.WorldHW)
	s.reply(Resp{Op: isa.OpUnlock, Addr: r.Addr, Core: r.Core,
		Result: isa.Success, ClearHWSync: true})
	s.abortLockEntry(e)
}

// abortLockEntry aborts all waiters of a lock entry to software and tears
// the entry down (migrated-owner unlock, §4.1.2).
func (s *Slice) abortLockEntry(e *entry) {
	if !s.cfg.OMUEnabled {
		panic("core: lock abort requires the OMU (no safe software fallback without it)")
	}
	for c := 0; c < s.tiles; c++ {
		if !e.waiters.Has(c) {
			continue
		}
		if condAddr, ok := e.behalf[c]; ok {
			// A cond waiter re-acquiring the lock: its fallback re-locks in
			// software and then FINISHes the cond var, so pre-charge the
			// cond's OMU counter at the cond's home.
			s.sendMsa(memory.HomeOf(condAddr, s.tiles), &MsaMsg{
				Kind: kindOmuAdjust, Cond: condAddr,
			})
			s.respond(c, isa.OpCondWait, condAddr, isa.Abort, ReasonFallback)
			delete(e.behalf, c)
			continue
		}
		s.omuInc(e.addr)
		s.respond(c, isa.OpLock, e.addr, isa.Abort, ReasonFallback)
	}
	e.waiters.Clear()
	e.owner = -1
	e.draining = true
	if e.grantsOut == 0 && !e.revoking {
		s.finishDrain(e)
	}
}

// finishDrain revokes any lingering HWSync block and deallocates.
func (s *Slice) finishDrain(e *entry) {
	if s.cfg.HWSyncOpt && e.standbyCore >= 0 {
		s.dir.Revoke(memory.LineOf(e.addr), func() { s.dealloc(e) })
		return
	}
	s.dealloc(e)
}

// maybeRetire handles a lock entry whose queue just emptied: keep it in
// standby while the holder's HWSync block remains usable, otherwise free it.
func (s *Slice) maybeRetire(e *entry) {
	if e.pins > 0 {
		return // pinned by a condition variable (§4.3.1)
	}
	if s.cfg.HWSyncOpt && e.standbyCore >= 0 &&
		(e.grantsOut > 0 || s.dir.IsExclusiveAt(memory.LineOf(e.addr), e.standbyCore)) {
		// The holder may silently re-acquire: stay in standby (a later
		// grant to anyone else revokes the block first). If standby entries
		// have exhausted the slice, proactively free the coldest one so
		// the next allocation does not have to fall back to software.
		e.standby = true
		s.met.standbys.Inc()
		s.fl(obs.FStandby, e.addr, e.standbyCore, uint32(e.typ))
		if s.cfg.OMUEnabled && !s.hasFreeSlot() {
			s.startReclaim(e)
		}
		return
	}
	if !s.cfg.OMUEnabled {
		return // permanent binding without the OMU
	}
	s.dealloc(e)
}

func (s *Slice) handleLockSilent(r *Req) {
	e := s.find(isa.TypeLock, r.Addr)
	if e == nil {
		panic(fmt.Sprintf("core: LOCK_SILENT for %#x with no entry (invariant violation)", r.Addr))
	}
	if e.owner != -1 || e.draining {
		panic(fmt.Sprintf("core: LOCK_SILENT for %#x from core %d in invalid state (owner=%d draining=%v standby=%v revoking=%v reclaiming=%v standbyCore=%d grantsOut=%d waiters=%v)",
			r.Addr, r.Core, e.owner, e.draining, e.standby, e.revoking, e.reclaiming, e.standbyCore, e.grantsOut, e.waiters))
	}
	s.stats.SilentLocks++
	s.met.silentLocks.Inc()
	s.fl(obs.FSilent, r.Addr, r.Core, 0)
	e.owner = r.Core
	e.standby = false
	// No response: the core already completed its LOCK locally (§5), and it
	// registered the acquisition with the invariant checker at that point —
	// no second registration here.
}

// --- Barriers (§4.2) ---

func (s *Slice) handleBarrier(r *Req) {
	e := s.find(isa.TypeBarrier, r.Addr)
	if e == nil {
		e = s.tryAllocate(isa.TypeBarrier, r.Addr)
		if e == nil {
			s.stats.BarrierSW++
			s.omuInc(r.Addr)
			s.respond(r.Core, isa.OpBarrier, r.Addr, isa.Fail, ReasonNone)
			return
		}
		e.goal = r.Goal
	}
	if e.goal == 0 {
		e.goal = r.Goal // permanent entry reused (without-OMU mode)
	}
	if e.goal != r.Goal {
		panic(fmt.Sprintf("core: barrier %#x goal mismatch %d vs %d", r.Addr, e.goal, r.Goal))
	}
	s.stats.BarrierHW++
	e.waiters.Add(r.Core)
	s.check.BarrierArrive(r.Addr, r.Core, e.goal, fault.WorldHW)
	if e.waiters.Count() == e.goal {
		// All arrived: release everyone (direct notification).
		s.check.BarrierRelease(r.Addr)
		e.waiters.ForEach(func(c int) {
			s.respond(c, isa.OpBarrier, r.Addr, isa.Success, ReasonNone)
		})
		e.waiters.Clear()
		e.goal = 0
		s.dealloc(e)
	}
}

// --- Suspension (§4.1.2, §4.2.2, §4.3.2) ---

func (s *Slice) handleSuspend(r *Req) {
	// The request addresses whichever entry the address resolves to; the
	// core sends it only while a LOCK/BARRIER/COND_WAIT is outstanding.
	if e := s.find(isa.TypeLock, r.Addr); e != nil && e.waiters.Has(r.Core) {
		// Dequeue the lock waiter; the core re-executes LOCK on resume.
		e.waiters.Remove(r.Core)
		s.respond(r.Core, isa.OpLock, r.Addr, isa.Abort, ReasonRequeue)
		return
	}
	if e := s.find(isa.TypeBarrier, r.Addr); e != nil && e.waiters.Has(r.Core) {
		// Force the whole barrier to software (§4.2.2).
		if !s.cfg.OMUEnabled {
			panic("core: barrier abort requires the OMU")
		}
		e.waiters.ForEach(func(c int) {
			s.omuInc(e.addr)
			s.respond(c, isa.OpBarrier, e.addr, isa.Abort, ReasonFallback)
		})
		s.check.BarrierAbort(e.addr)
		e.waiters.Clear()
		e.goal = 0
		s.dealloc(e)
		return
	}
	if e := s.find(isa.TypeCond, r.Addr); e != nil && e.waiters.Has(r.Core) {
		s.suspendCondWaiter(e, r.Core)
		return
	}
	// Not queued here (already granted, or waiting for the lock at another
	// home): tell the core to keep waiting for the original response.
	s.respond(r.Core, isa.OpSuspend, r.Addr, isa.Fail, ReasonNone)
}

// --- Watchdog introspection ---

// EntrySnapshot is a read-only copy of one live MSA entry, consumed by the
// machine's liveness watchdog when building a deadlock diagnosis.
type EntrySnapshot struct {
	Typ      isa.SyncType
	Addr     memory.Addr
	Owner    int        // locks: owning core, -1 free
	Waiters  bitset.Set // one bit per waiting core (barriers: arrived cores)
	Goal     int        // barriers: participant count
	Pins     int        // locks: condition variables pinning the entry
	Standby  bool
	Draining bool
	Revoking bool
	LockAddr memory.Addr // conds: associated lock
}

// Snapshot returns the live (valid, non-empty) entries of this slice.
func (s *Slice) Snapshot() []EntrySnapshot {
	var out []EntrySnapshot
	for _, e := range s.entries {
		if !e.valid || e.empty {
			continue
		}
		out = append(out, EntrySnapshot{
			Typ: e.typ, Addr: e.addr, Owner: e.owner, Waiters: e.waiters.Clone(),
			Goal: e.goal, Pins: e.pins, Standby: e.standby,
			Draining: e.draining, Revoking: e.revoking, LockAddr: e.lockAddr,
		})
	}
	return out
}

// LastReq returns the cycle at which this slice handled its most recent
// request (0 if it never saw one). The watchdog reports it as the tile's
// last-event timestamp.
func (s *Slice) LastReq() sim.Time { return s.lastReq }
