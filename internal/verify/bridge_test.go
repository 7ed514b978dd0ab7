package verify_test

// The bridge tests keep the abstract models in internal/verify honest: each
// scenario drives the CONCRETE simulator (coherence rig, MSA slice rig, or a
// full machine) through a sequence of transitions, declares which abstract
// rule(s) each transition corresponds to, folds those rules through
// System.Apply, and asserts that the concrete state's abstraction is covered
// by the abstract post-state. A model that drifts from the simulator — a
// renamed transition, a changed guard, a different update — fails here.
//
// TestBridgeRuleCoverage additionally asserts that the union of declared
// rules across scenarios covers EVERY rule of every shipped model, so no
// abstract rule exists without a concrete counterpart being exercised.

import (
	"testing"

	"misar/internal/coherence"
	"misar/internal/core"
	"misar/internal/cpu"
	"misar/internal/fault"
	"misar/internal/isa"
	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/noc"
	"misar/internal/sim"
	"misar/internal/syncrt"
	"misar/internal/tm"
	"misar/internal/verify"
)

// --- abstract-side helpers ---

func mustModel(t *testing.T, name string) *verify.System {
	t.Helper()
	m, ok := verify.ModelByName(name)
	if !ok {
		t.Fatalf("no shipped model %q", name)
	}
	return m.System
}

func initSet(sys *verify.System) []verify.Config {
	out := make([]verify.Config, 0, len(sys.Inits))
	for _, c := range sys.Inits {
		out = append(out, append(verify.Config{}, c...))
	}
	return out
}

// fold fires each rule (in order) on every configuration of the set,
// replacing the set with the union of successors.
func fold(t *testing.T, sys *verify.System, set []verify.Config, rules []string) []verify.Config {
	t.Helper()
	for _, r := range rules {
		var next []verify.Config
		seen := map[string]bool{}
		for _, c := range set {
			for _, succ := range sys.Apply(c, r) {
				k := succ.String()
				if !seen[k] {
					seen[k] = true
					next = append(next, succ)
				}
			}
		}
		if len(next) == 0 {
			t.Fatalf("%s: abstract rule %q not fireable from %v", sys.Name, r, set)
		}
		set = next
	}
	return set
}

func covers(c verify.Config, conc []int) bool {
	for i, v := range c {
		if !v.Contains(conc[i]) {
			return false
		}
	}
	return true
}

// narrow keeps the abstract configurations covering the concrete
// abstraction, failing the test when none does — the core bridge assertion.
func narrow(t *testing.T, sys *verify.System, set []verify.Config, conc []int, step string) []verify.Config {
	t.Helper()
	var out []verify.Config
	for _, c := range set {
		if covers(c, conc) {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s, step %q: concrete abstraction %v not covered by any abstract config in %v",
			sys.Name, step, conc, set)
	}
	return out
}

// --- declared rule sequences (also consumed by TestBridgeRuleCoverage) ---

var mesiBasicRules = [][]string{
	{"read-cold"}, {"write-hit-e"}, {"read-owner-m"}, {"read-shared"},
	{"write-from-i"}, {"read-owner-m"}, {"write-from-s"}, {"revoke"},
	{"grant"}, {"read-owner-e"},
}

var mesiEvictRules = [][]string{
	{"read-cold"}, {"evict-e"}, {"write-from-i"}, {"writeback-m"},
	{"read-cold"}, {"read-owner-e"}, {"evict-s"},
}

var lockHWRules = [][]string{
	{"alloc-grant"}, {"hw-enqueue"}, {"hw-enqueue"}, {"hw-requeue"},
	{"hw-unlock", "hw-promote"}, {"hw-unlock", "retire"},
}

var omuHWRules = [][]string{
	{"alloc", "hw-complete"}, {"hw-join"}, {"hw-join"}, {"hw-complete"},
	{"hw-complete"}, {"retire"},
}

var lockSteerRules = [][]string{
	nil, {"steer"}, {"steer"}, nil, {"steer"},
	{"sw-finish"}, {"sw-finish"}, {"sw-finish"},
}

var omuSteerRules = [][]string{
	nil, {"sw-steer"}, {"sw-steer"}, nil, {"sw-steer"},
	{"sw-finish"}, {"sw-finish"}, {"sw-finish"},
}

var lockAbortRules = [][]string{
	{"alloc-grant"}, {"hw-enqueue"},
	{"abort", "steer-drain", "drain-done"},
	{"sw-finish"}, {"sw-finish"},
}

var omuAbortRules = [][]string{
	{"alloc", "hw-complete"}, {"hw-join"},
	{"abort", "sw-steer-drain", "drain-done"},
	{"sw-finish"}, {"sw-finish"},
}

var lockSWRules = [][]string{
	{"steer", "sw-acquire"}, {"sw-release", "sw-finish"},
}

var omuSWRules = [][]string{
	{"sw-steer"}, {"sw-finish"},
}

var barrierRules = [][]string{
	{"arrive"}, {"arrive"}, {"arrive", "release"},
	{"next-arrive"}, {"next-arrive"}, {"next-arrive", "shift", "release", "shift"},
}

// windowRules is the three-window shard-bridge script: window work steps
// alternate with coordinator flips. The final flip is intentionally absent —
// after the last scripted window the recycled-token flip would predict the
// NEXT window's load, and there is none.
var windowRules = [][]string{
	{"send-exec", "send-exec", "send-post", "recv-exec", "recv-exec"},
	{"window-flip"},
	{"send-exec", "send-post", "recv-exec", "recv-exec", "deliver"},
	{"window-flip"},
	{"send-exec", "recv-exec", "recv-exec", "recv-exec", "deliver"},
}

var omuBarrierRules = [][]string{
	{"alloc"}, {"hw-join"}, {"hw-join", "hw-complete", "hw-complete", "hw-complete", "retire"},
	{"alloc"}, {"hw-join"}, {"hw-join", "hw-complete", "hw-complete", "hw-complete", "retire"},
}

// tmRules is the tm-commit bridge script (TestBridgeTMCommit): the abstract
// rules the tracked word w undergoes at each of the 8 choreographed steps.
// The nil steps touch only words in other lock slots, so no w rule fires.
var tmRules = [][]string{
	{"read"},                               // 1: T1 opens and reads w
	{"lock-acquire", "abort-release"},      // 2: T0 locks w's slot, aborts on x's busy slot
	nil,                                    // 3: T0 releases the seeded x lock (raw store)
	{"lock-acquire", "write-back-release"}, // 4: T0 commits w=7, invalidating T1's read
	{"validate-abort"},                     // 5: T1's commit validates w stale and aborts
	{"read"},                               // 6: T1 re-reads the committed w
	nil,                                    // 7: T0 commits z (w's slot untouched)
	{"validate-commit"},                    // 8: T1's commit re-validates w fresh
}

func TestBridgeRuleCoverage(t *testing.T) {
	declared := map[string][][]string{
		"mesi":            append(append([][]string{}, mesiBasicRules...), mesiEvictRules...),
		"msa-lock-mutex":  concatRules(lockHWRules, lockSteerRules, lockAbortRules, lockSWRules),
		"omu-exclusivity": concatRules(omuHWRules, omuSteerRules, omuAbortRules, omuSWRules, omuBarrierRules),
		"barrier-epoch":   barrierRules,
		"window-protocol": windowRules,
		"tm-commit":       tmRules,
	}
	for name, steps := range declared {
		sys := mustModel(t, name)
		used := map[string]bool{}
		for _, step := range steps {
			for _, r := range step {
				used[r] = true
			}
		}
		for _, r := range sys.Rules {
			if !used[r.Name] {
				t.Errorf("%s: rule %q has no concrete bridge scenario exercising it", name, r.Name)
			}
		}
		for r := range used {
			found := false
			for _, mr := range sys.Rules {
				if mr.Name == r {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: bridge declares unknown rule %q", name, r)
			}
		}
	}
}

func concatRules(lists ...[][]string) [][]string {
	var out [][]string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// --- MESI bridge (internal/coherence, exported API only) ---

type cohRig struct {
	engine *sim.Engine
	store  *memory.Store
	l1     []*coherence.L1
	dir    []*coherence.Directory
}

func newCohRig(tiles int, cfg coherence.L1Config) *cohRig {
	w := 1
	for w*w < tiles {
		w++
	}
	e := sim.NewEngine()
	n := noc.New(e, noc.DefaultConfig(w, (tiles+w-1)/w))
	r := &cohRig{engine: e, store: memory.NewStore(),
		l1:  make([]*coherence.L1, tiles),
		dir: make([]*coherence.Directory, tiles)}
	for i := 0; i < tiles; i++ {
		i := i
		send := func(dst int, m *coherence.Msg) {
			n.Send(&noc.Message{Src: i, Dst: dst, Bytes: m.Bytes(), Payload: m})
		}
		r.l1[i] = coherence.NewL1(i, tiles, cfg, e, r.store, send)
		r.dir[i] = coherence.NewDirectory(i, tiles, coherence.DefaultDirConfig(), e, send)
		n.Attach(i, func(nm *noc.Message) {
			m := nm.Payload.(*coherence.Msg)
			switch m.Kind {
			case coherence.RspDataS, coherence.RspDataE, coherence.MsgInv, coherence.MsgFwd:
				r.l1[i].Handle(m)
			default:
				r.dir[i].Handle(m)
			}
		})
	}
	return r
}

// abstractMESI counts cores per line state for addr: (i, s, e, m).
func (r *cohRig) abstractMESI(a memory.Addr) []int {
	conc := []int{0, 0, 0, 0}
	for _, l1 := range r.l1 {
		switch l1.State(a) {
		case coherence.Invalid:
			conc[0]++
		case coherence.Shared:
			conc[1]++
		case coherence.Exclusive:
			conc[2]++
		case coherence.Modified:
			conc[3]++
		}
	}
	return conc
}

// step drives fn at the next engine instant and runs to quiescence.
func (r *cohRig) step(t *testing.T, fn func()) {
	t.Helper()
	r.engine.At(r.engine.Now()+1, fn)
	if !r.engine.RunUntil(50_000_000) {
		t.Fatal("coherence rig did not quiesce")
	}
}

func TestBridgeMESIBasic(t *testing.T) {
	sys := mustModel(t, "mesi")
	r := newCohRig(4, coherence.DefaultL1Config())
	a := memory.Addr(0x1000)
	home := memory.HomeOf(a, 4)
	drives := []func(){
		func() { r.l1[0].Access(a, coherence.AccLoad, 0, nil, func(uint64) {}) },
		func() { r.l1[0].Access(a, coherence.AccStore, 1, nil, func(uint64) {}) },
		func() { r.l1[1].Access(a, coherence.AccLoad, 0, nil, func(uint64) {}) },
		func() { r.l1[2].Access(a, coherence.AccLoad, 0, nil, func(uint64) {}) },
		func() { r.l1[3].Access(a, coherence.AccStore, 2, nil, func(uint64) {}) },
		func() { r.l1[0].Access(a, coherence.AccLoad, 0, nil, func(uint64) {}) },
		func() { r.l1[0].Access(a, coherence.AccStore, 3, nil, func(uint64) {}) },
		func() { r.dir[home].Revoke(memory.LineOf(a), func() {}) },
		func() { r.dir[home].GrantExclusive(memory.LineOf(a), 2, func() {}) },
		func() { r.l1[3].Access(a, coherence.AccLoad, 0, nil, func(uint64) {}) },
	}
	set := initSet(sys)
	for i, drive := range drives {
		r.step(t, drive)
		set = fold(t, sys, set, mesiBasicRules[i])
		set = narrow(t, sys, set, r.abstractMESI(a), mesiBasicRules[i][0])
	}
}

func TestBridgeMESIEvictions(t *testing.T) {
	sys := mustModel(t, "mesi")
	// One-line caches: any access to a different line evicts addr a.
	r := newCohRig(4, coherence.L1Config{Sets: 1, Ways: 1, HitLatency: 1})
	a := memory.Addr(0x1000)
	b1, b2, b3 := a+memory.LineSize, a+2*memory.LineSize, a+3*memory.LineSize
	drives := []func(){
		func() { r.l1[0].Access(a, coherence.AccLoad, 0, nil, func(uint64) {}) },
		func() { r.l1[0].Access(b1, coherence.AccLoad, 0, nil, func(uint64) {}) }, // evicts a (clean E)
		func() { r.l1[1].Access(a, coherence.AccStore, 5, nil, func(uint64) {}) },
		func() { r.l1[1].Access(b2, coherence.AccLoad, 0, nil, func(uint64) {}) }, // writes a back (dirty M)
		func() { r.l1[2].Access(a, coherence.AccLoad, 0, nil, func(uint64) {}) },
		func() { r.l1[3].Access(a, coherence.AccLoad, 0, nil, func(uint64) {}) },
		func() { r.l1[2].Access(b3, coherence.AccLoad, 0, nil, func(uint64) {}) }, // evicts a (shared)
	}
	set := initSet(sys)
	for i, drive := range drives {
		r.step(t, drive)
		set = fold(t, sys, set, mesiEvictRules[i])
		set = narrow(t, sys, set, r.abstractMESI(a), mesiEvictRules[i][0])
	}
	if r.l1[1].Stats().Writebacks == 0 {
		t.Fatal("scenario did not exercise a dirty writeback")
	}
}

// --- MSA slice bridge (internal/core, exported API only) ---

type msaRig struct {
	engine *sim.Engine
	net    *noc.Network
	store  *memory.Store
	msa    []*core.Slice
	check  *fault.Checker
	got    [][]core.Resp
}

func newMSARig(tiles int, cfg core.Config) *msaRig {
	w := 1
	for w*w < tiles {
		w++
	}
	e := sim.NewEngine()
	n := noc.New(e, noc.DefaultConfig(w, (tiles+w-1)/w))
	r := &msaRig{engine: e, net: n, store: memory.NewStore(),
		msa:   make([]*core.Slice, tiles),
		check: fault.NewChecker(e.Now),
		got:   make([][]core.Resp, tiles)}
	l1s := make([]*coherence.L1, tiles)
	dirs := make([]*coherence.Directory, tiles)
	for i := 0; i < tiles; i++ {
		i := i
		sendCoh := func(dst int, m *coherence.Msg) {
			n.Send(&noc.Message{Src: i, Dst: dst, Bytes: m.Bytes(), Payload: m})
		}
		l1s[i] = coherence.NewL1(i, tiles, coherence.DefaultL1Config(), e, r.store, sendCoh)
		dirs[i] = coherence.NewDirectory(i, tiles, coherence.DefaultDirConfig(), e, sendCoh)
		r.msa[i] = core.NewSlice(i, tiles, cfg, e, dirs[i],
			func(c int, resp *core.Resp) {
				n.Send(&noc.Message{Src: i, Dst: c, Bytes: core.RespBytes, Payload: resp})
			},
			func(tile int, m *core.MsaMsg) {
				n.Send(&noc.Message{Src: i, Dst: tile, Bytes: core.MsaBytes, Payload: m})
			})
		r.msa[i].SetChecker(r.check)
		n.Attach(i, func(nm *noc.Message) {
			switch p := nm.Payload.(type) {
			case *coherence.Msg:
				switch p.Kind {
				case coherence.RspDataS, coherence.RspDataE, coherence.MsgInv, coherence.MsgFwd:
					l1s[i].Handle(p)
				default:
					dirs[i].Handle(p)
				}
			case *core.Resp:
				r.got[i] = append(r.got[i], *p)
			case *core.MsaMsg:
				r.msa[i].HandleMsa(p)
			case *core.Req:
				r.msa[i].HandleReq(p)
			}
		})
	}
	return r
}

func (r *msaRig) step(t *testing.T, fn func()) {
	t.Helper()
	r.engine.At(r.engine.Now()+1, fn)
	if !r.engine.RunUntil(10_000_000) {
		t.Fatal("MSA rig did not quiesce")
	}
}

func (r *msaRig) req(c int, op isa.SyncOp, addr memory.Addr, goal int) func() {
	return func() {
		home := memory.HomeOf(addr, len(r.msa))
		r.net.Send(&noc.Message{Src: c, Dst: home, Bytes: core.ReqBytes,
			Payload: &core.Req{Op: op, Addr: addr, Core: c, Goal: goal}})
	}
}

// abstractLock maps the concrete state of lock address a onto the
// msa-lock-mutex variables (el, ed, ho, hq, so, sp).
func (r *msaRig) abstractLock(a memory.Addr) []int {
	conc := []int{0, 0, 0, 0, 0, 0}
	for _, s := range r.msa {
		for _, e := range s.Snapshot() {
			if e.Typ != isa.TypeLock || e.Addr != a {
				continue
			}
			if e.Draining {
				conc[1]++
				continue
			}
			conc[0]++
			if e.Owner >= 0 {
				conc[2]++
			}
			conc[3] += e.Waiters.Count()
		}
	}
	if r.store.Load(a) != 0 {
		conc[4] = 1
	}
	conc[5] = r.check.SWLevel(a) - conc[4]
	return conc
}

// abstractOMU maps the concrete state of sync address a onto the
// omu-exclusivity variables (h, d, hw, w). hw counts threads with an
// outstanding hardware request (queued lock waiters / arrived barrier
// waiters); a granted owner's request has completed, so it is not in hw.
func (r *msaRig) abstractOMU(a memory.Addr) []int {
	conc := []int{0, 0, 0, 0}
	for _, s := range r.msa {
		for _, e := range s.Snapshot() {
			if e.Addr != a {
				continue
			}
			if e.Draining {
				conc[1]++
				continue
			}
			conc[0]++
			conc[2] += e.Waiters.Count()
		}
	}
	conc[3] = r.check.SWLevel(a)
	return conc
}

// bridgeMSAScenario folds each step's declared rules for both the lock and
// OMU models and asserts coverage of the concrete abstraction.
type msaScenario struct {
	rig      *msaRig
	addr     memory.Addr
	lockSys  *verify.System
	omuSys   *verify.System
	lockSet  []verify.Config
	omuSet   []verify.Config
	lockSeq  [][]string
	omuSeq   [][]string
	stepIdx  int
	noSWWord bool
}

func newMSAScenario(t *testing.T, rig *msaRig, addr memory.Addr, lockSeq, omuSeq [][]string) *msaScenario {
	sc := &msaScenario{rig: rig, addr: addr,
		lockSys: mustModel(t, "msa-lock-mutex"),
		omuSys:  mustModel(t, "omu-exclusivity"),
		lockSeq: lockSeq, omuSeq: omuSeq}
	sc.lockSet = initSet(sc.lockSys)
	sc.omuSet = initSet(sc.omuSys)
	return sc
}

func (sc *msaScenario) step(t *testing.T, label string, fn func()) {
	t.Helper()
	sc.rig.step(t, fn)
	if sc.lockSeq != nil {
		sc.lockSet = fold(t, sc.lockSys, sc.lockSet, sc.lockSeq[sc.stepIdx])
		sc.lockSet = narrow(t, sc.lockSys, sc.lockSet, sc.rig.abstractLock(sc.addr), label)
	}
	if sc.omuSeq != nil {
		sc.omuSet = fold(t, sc.omuSys, sc.omuSet, sc.omuSeq[sc.stepIdx])
		sc.omuSet = narrow(t, sc.omuSys, sc.omuSet, sc.rig.abstractOMU(sc.addr), label)
	}
	sc.stepIdx++
}

func (sc *msaScenario) done(t *testing.T) {
	t.Helper()
	if v := sc.rig.check.Violations(); len(v) != 0 {
		t.Fatalf("runtime checker flagged the bridge scenario: %v", v)
	}
}

// lockAddrs returns two lock addresses with the same home slice but distinct
// OMU counters, so scenarios can exhaust capacity without counter aliasing.
func lockAddrs(t *testing.T, tiles, counters int) (a, b memory.Addr) {
	a = memory.Addr(0x10000)
	for b = a + memory.Addr(tiles*memory.LineSize); ; b += memory.Addr(tiles * memory.LineSize) {
		if core.OMUIndex(b, counters) != core.OMUIndex(a, counters) {
			break
		}
		if b > a+1<<20 {
			t.Fatal("no non-aliasing address found")
		}
	}
	if memory.HomeOf(a, tiles) != memory.HomeOf(b, tiles) {
		t.Fatal("addresses not co-homed")
	}
	return a, b
}

func TestBridgeLockHW(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HWSyncOpt = false
	rig := newMSARig(4, cfg)
	a, _ := lockAddrs(t, 4, cfg.OMUCounters)
	sc := newMSAScenario(t, rig, a, lockHWRules, omuHWRules)
	sc.step(t, "alloc-grant", rig.req(0, isa.OpLock, a, 0))
	sc.step(t, "enqueue-1", rig.req(1, isa.OpLock, a, 0))
	sc.step(t, "enqueue-2", rig.req(2, isa.OpLock, a, 0))
	sc.step(t, "requeue", rig.req(2, isa.OpSuspend, a, 0))
	sc.step(t, "unlock-promote", rig.req(0, isa.OpUnlock, a, 0))
	sc.step(t, "unlock-retire", rig.req(1, isa.OpUnlock, a, 0))
	sc.done(t)
	if got := rig.got[2]; len(got) == 0 || got[len(got)-1].Result != isa.Abort {
		t.Fatal("suspended waiter did not get the requeue ABORT")
	}
}

func TestBridgeLockSteer(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HWSyncOpt = false
	cfg.Entries = 1
	rig := newMSARig(4, cfg)
	a, b := lockAddrs(t, 4, cfg.OMUCounters)
	home := memory.HomeOf(a, 4)
	sc := newMSAScenario(t, rig, a, lockSteerRules, omuSteerRules)
	sc.step(t, "occupy-other", rig.req(0, isa.OpLock, b, 0))
	sc.step(t, "capacity-steer", rig.req(1, isa.OpLock, a, 0))
	sc.step(t, "omu-steer", rig.req(2, isa.OpLock, a, 0))
	sc.step(t, "free-other", rig.req(0, isa.OpUnlock, b, 0))
	sc.step(t, "omu-steer-free-slot", rig.req(3, isa.OpLock, a, 0))
	sc.step(t, "finish-1", rig.req(1, isa.OpFinish, a, 0))
	sc.step(t, "finish-2", rig.req(2, isa.OpFinish, a, 0))
	sc.step(t, "finish-3", rig.req(3, isa.OpFinish, a, 0))
	sc.done(t)
	st := rig.msa[home].Stats()
	if st.CapacitySteers != 1 || st.OMUSteers != 2 {
		t.Fatalf("steer split = capacity %d / omu %d, want 1 / 2 (both causes must be exercised)",
			st.CapacitySteers, st.OMUSteers)
	}
}

func TestBridgeLockAbort(t *testing.T) {
	cfg := core.DefaultConfig() // HWSyncOpt on: the drain window is observable
	rig := newMSARig(4, cfg)
	a, _ := lockAddrs(t, 4, cfg.OMUCounters)
	home := memory.HomeOf(a, 4)
	sc := newMSAScenario(t, rig, a, lockAbortRules, omuAbortRules)
	sc.step(t, "alloc-grant", rig.req(0, isa.OpLock, a, 0))
	sc.step(t, "enqueue", rig.req(1, isa.OpLock, a, 0))
	// Migrated-owner unlock (§4.1.2) and a lock racing into the drain
	// window, back-to-back in one instant: the entry is draining (its HWSync
	// revoke is in flight) when the second request arrives.
	sc.step(t, "abort+steer-drain", func() {
		rig.msa[home].HandleReq(&core.Req{Op: isa.OpUnlock, Addr: a, Core: 3})
		if n := len(rig.msa[home].Snapshot()); n == 0 {
			t.Error("entry should be draining, not gone, inside the abort instant")
		}
		rig.msa[home].HandleReq(&core.Req{Op: isa.OpLock, Addr: a, Core: 2})
	})
	sc.step(t, "finish-1", rig.req(1, isa.OpFinish, a, 0))
	sc.step(t, "finish-2", rig.req(2, isa.OpFinish, a, 0))
	sc.done(t)
	if st := rig.msa[home].Stats(); st.Aborts == 0 {
		t.Fatal("scenario did not exercise the migrated-owner abort")
	}
}

// TestBridgeLockSoftware drives the REAL software fallback (syncrt TTS lock
// under a full machine) through steer, software acquire, software release
// and FINISH, bridging the sw-* rules to internal/syncrt.
func TestBridgeLockSoftware(t *testing.T) {
	cfg := machine.MSAOMU(2, 1)
	cfg.Invariants = true
	m := machine.New(cfg)
	a := memory.Addr(0x10000) // home slice 0
	b := memory.Addr(0x10080) // home slice 0, occupies the single entry
	arena := syncrt.NewArena(0x100000)
	qnodes := []memory.Addr{arena.QNode(), arena.QNode()}
	lockSys := mustModel(t, "msa-lock-mutex")
	omuSys := mustModel(t, "omu-exclusivity")

	var lockConcs, omuConcs [][]int
	capture := func(mach *machine.Machine) {
		conc := []int{0, 0, 0, 0, 0, 0}
		oconc := []int{0, 0, 0, 0}
		for _, s := range mach.Slices {
			for _, e := range s.Snapshot() {
				if e.Addr != a {
					continue
				}
				if e.Draining {
					conc[1]++
					oconc[1]++
					continue
				}
				conc[0]++
				oconc[0]++
				if e.Owner >= 0 {
					conc[2]++
				}
				conc[3] += e.Waiters.Count()
				oconc[2] += e.Waiters.Count()
			}
		}
		if mach.Store.Load(a) != 0 {
			conc[4] = 1
		}
		conc[5] = mach.Checker.SWLevel(a) - conc[4]
		oconc[3] = mach.Checker.SWLevel(a)
		lockConcs = append(lockConcs, conc)
		omuConcs = append(omuConcs, oconc)
	}

	m.SpawnAll(2, func(tid int, e cpu.Env) {
		rt := syncrt.HWLib().Bind(e, qnodes[tid])
		if tid == 0 {
			rt.Lock(syncrt.Mutex{Addr: b})
			e.Compute(50_000)
			rt.Unlock(syncrt.Mutex{Addr: b})
			return
		}
		e.Compute(2_000) // let thread 0 occupy the only entry first
		rt.Lock(syncrt.Mutex{Addr: a})
		capture(m) // steered + software-acquired
		e.Compute(1_000)
		rt.Unlock(syncrt.Mutex{Addr: a})
		capture(m) // software-released + FINISHed
	})
	if _, err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if len(lockConcs) != 2 {
		t.Fatalf("captured %d states, want 2", len(lockConcs))
	}
	lockSet, omuSet := initSet(lockSys), initSet(omuSys)
	for i := range lockConcs {
		lockSet = fold(t, lockSys, lockSet, lockSWRules[i])
		lockSet = narrow(t, lockSys, lockSet, lockConcs[i], lockSWRules[i][0])
		omuSet = fold(t, omuSys, omuSet, omuSWRules[i])
		omuSet = narrow(t, omuSys, omuSet, omuConcs[i], omuSWRules[i][0])
	}
	if lockConcs[0][4] != 1 {
		t.Fatal("software TTS lock word was not held at the first capture")
	}
}

// --- barrier bridge ---

func TestBridgeBarrier(t *testing.T) {
	cfg := core.DefaultConfig()
	rig := newMSARig(4, cfg)
	bar := memory.Addr(0x30000)
	const goal = 3
	barSys := mustModel(t, "barrier-epoch")
	omuSys := mustModel(t, "omu-exclusivity")
	barSet, omuSet := initSet(barSys), initSet(omuSys)

	sent := make([]int, goal)
	windowBase := 0
	// abstractBarrier derives (q, a, d, a2) from the scripted cores'
	// request/response ledger, relative to the declared epoch window.
	abstractBarrier := func(t *testing.T) []int {
		t.Helper()
		conc := []int{0, 0, 0, 0}
		for c := 0; c < goal; c++ {
			succ := 0
			for _, resp := range rig.got[c] {
				if resp.Op == isa.OpBarrier && resp.Result == isa.Success {
					succ++
				}
			}
			waiting := sent[c] > succ
			epoch := succ - windowBase
			switch {
			case epoch == 0 && !waiting:
				conc[0]++
			case epoch == 0 && waiting:
				conc[1]++
			case epoch == 1 && !waiting:
				conc[2]++
			case epoch == 1 && waiting:
				conc[3]++
			default:
				t.Fatalf("core %d outside the two-epoch window (epoch %d, waiting %v)", c, epoch, waiting)
			}
		}
		return conc
	}
	step := func(t *testing.T, i, c int) {
		t.Helper()
		sent[c]++
		rig.step(t, rig.req(c, isa.OpBarrier, bar, goal))
		for _, r := range barrierRules[i] {
			if r == "shift" {
				windowBase++
			}
		}
		barSet = fold(t, barSys, barSet, barrierRules[i])
		barSet = narrow(t, barSys, barSet, abstractBarrier(t), barrierRules[i][0])
		omuSet = fold(t, omuSys, omuSet, omuBarrierRules[i])
		omuSet = narrow(t, omuSys, omuSet, rig.abstractOMU(bar), omuBarrierRules[i][0])
	}
	for episode := 0; episode < 2; episode++ {
		for c := 0; c < goal; c++ {
			step(t, episode*goal+c, c)
		}
	}
	if v := rig.check.Violations(); len(v) != 0 {
		t.Fatalf("runtime checker flagged the barrier bridge: %v", v)
	}
}

// --- shard window-protocol bridge (internal/sim ShardGroup) ---

// TestBridgeWindowProtocol drives a REAL two-shard sim.ShardGroup window by
// window and narrows the abstract window-protocol model against a ledger of
// what the concrete kernel actually executed. Shard 0 is the sender, shard 1
// the receiver; lookahead is 3, so the windows are [0,2], [3,5], [6,8]. The
// scripted load deliberately exercises the recycled-token flip: window 1's
// sender work (2 events) equals window 0's preDone, window 2's receiver work
// (3 events) equals window 1's done, and each window's injectable mail
// equals the previous window's posts.
func TestBridgeWindowProtocol(t *testing.T) {
	const lookahead = 3
	sys := mustModel(t, "window-protocol")
	g := sim.NewShardGroup(2, lookahead)
	e0, e1 := g.Engine(0), g.Engine(1)

	check := fault.NewChecker(e1.Now)
	check.Synchronize() // mirror machine wiring in sharded mode

	// Concrete ledger. Each field is written by exactly one shard's
	// goroutine; reads happen after RunUntilCheck returns (the window
	// barrier's done-atomic publishes the writes).
	var led struct {
		s0exec int      // sender events without cross-shard output
		posts  int      // sender events that posted cross-shard mail
		s1done int      // receiver executions: local events + deliveries
		late   int      // deliveries behind the receiver clock
		hwm    sim.Time // receiver delivery high-water mark
	}
	exec0 := func() { led.s0exec++ }
	exec1 := func() { led.s1done++ }
	onDeliver := func(arg any) {
		want := arg.(sim.Time)
		now := e1.Now()
		if now != want || now < led.hwm {
			led.late++
		}
		led.hwm = now
		led.s1done++
		check.ShardDelivery(1, now) // the runtime shadow of "straggler"
	}
	post := func(when sim.Time) func() {
		return func() { led.posts++; g.Post(0, 1, when, onDeliver, when, 0) }
	}

	// Window 0: sender execs at 0,1 and posts at 2 (delivery 2+3=5);
	// receiver execs at 0,1.
	e0.At(0, exec0)
	e0.At(1, exec0)
	e0.At(2, post(5))
	e1.At(0, exec1)
	e1.At(1, exec1)
	// Window 1: sender exec at 3, post at 4 (delivery 7); receiver execs
	// at 3,4 plus the injected delivery at 5.
	e0.At(3, exec0)
	e0.At(4, post(7))
	e1.At(3, exec1)
	e1.At(4, exec1)
	// Window 2: sender exec at 6; receiver execs at 6,7,8 plus the
	// delivery at 7.
	e0.At(6, exec0)
	e1.At(6, exec1)
	e1.At(7, exec1)
	e1.At(8, exec1)

	// Per-window scripted loads, cross-checked below against the engines'
	// own Fired/Posted counters: total sender events (execs+posts),
	// receiver local events, and deliveries injected.
	s0Sched := []int{3, 2, 1}
	s1Sched := []int{2, 2, 3}

	// One RunUntilCheck drives all three windows; the interrupt poll runs on
	// the coordinator after each window barrier — every shard parked, all
	// ledger writes published by the barrier's done-atomic — so it is the
	// exact concrete counterpart of the abstract "between rules" instant.
	type snap struct {
		s0exec, posts, s1done, late int
		fired0, fired1              uint64
	}
	var snaps []snap
	drained, interrupted := g.RunUntilCheck(8, 1, func() bool {
		snaps = append(snaps, snap{led.s0exec, led.posts, led.s1done, led.late,
			e0.Fired(), e1.Fired()})
		return false
	})
	if !drained || interrupted {
		t.Fatalf("drained=%v interrupted=%v, want drained cleanly", drained, interrupted)
	}
	if len(snaps) != 3 {
		t.Fatalf("captured %d window barriers, want 3 ([0,2] [3,5] [6,8])", len(snaps))
	}

	set := initSet(sys)
	prev := snap{}
	pendingMail := 0 // posts made last window, injectable this window
	for w, s := range snaps {
		// The kernel must have executed exactly the scripted load — the
		// ledger is only a valid abstraction if it matches the engines.
		if d := s.fired0 - prev.fired0; int(d) != s0Sched[w] {
			t.Fatalf("window %d: sender fired %d events, script says %d", w, d, s0Sched[w])
		}
		if d := s.fired1 - prev.fired1; int(d) != s1Sched[w]+pendingMail {
			t.Fatalf("window %d: receiver fired %d events, script says %d", w, d, s1Sched[w]+pendingMail)
		}

		// Work step: at the barrier every shard has drained its window
		// (pre=run=cur=0); preDone/done/next come from the ledger deltas.
		conc := []int{0, s.s0exec - prev.s0exec, 0, 0,
			s.s1done - prev.s1done, 0, s.posts - prev.posts, s.late}
		set = fold(t, sys, set, windowRules[2*w])
		set = narrow(t, sys, set, conc, windowRules[2*w][0])

		// Flip step (except after the final window): the recycled tokens
		// must equal the NEXT window's scripted load, with this window's
		// posts as the injectable mail.
		if w < 2 {
			flipConc := []int{s0Sched[w+1], 0, 0, s1Sched[w+1], 0,
				s.posts - prev.posts, 0, s.late}
			set = fold(t, sys, set, windowRules[2*w+1])
			set = narrow(t, sys, set, flipConc, "window-flip")
		}
		pendingMail = s.posts - prev.posts
		prev = s
	}

	if led.late != 0 {
		t.Fatalf("%d stragglers observed — conservative windows failed", led.late)
	}
	if got := g.Posted(); got != 2 {
		t.Fatalf("group mailed %d cross-shard events, script says 2", got)
	}
	if got := g.Windows(); got != 3 {
		t.Fatalf("group executed %d windows, script says 3", got)
	}
	if v := check.Violations(); len(v) != 0 {
		t.Fatalf("runtime shard-delivery checker flagged the bridge: %v", v)
	}
}

// --- TM commit-protocol bridge (internal/tm stepping API, full machine) ---

// TestBridgeTMCommit drives the REAL STM runtime (tm.Ctx on a software-only
// machine, invariant checker attached) through an 8-step two-thread
// choreography that fires every tm-commit rule, and narrows the abstract
// model against the concrete abstraction of one tracked word w:
//
//	[rv, ri, cl, lk, cw] = [valid readers of w, invalidated readers of w,
//	commit-lock holders of w's slot, w's lock bit, stale commits]
//
// Every capture happens inside the active thread's code with the serial
// kernel parked, after the step's last simulated op — so the concrete state
// is exactly the abstract "between rules" instant. rv/ri come from a ledger
// of what each thread's open read of w observed (the lock word at read time)
// compared against w's current lock word; cl is 0 at every capture (no
// commit phase spans a step boundary) and cw is 0 because the real protocol
// never commits stale — the abstract fold agrees, which is the point.
func TestBridgeTMCommit(t *testing.T) {
	sys := mustModel(t, "tm-commit")
	cfg := machine.Default(2)
	cfg.Name = "tm-bridge"
	cfg.CPU.Mode = cpu.ModeAlwaysFail
	cfg.Invariants = true
	m := machine.New(cfg)

	// Word selection: w is the tracked word. x must hash to a LATER slot
	// than w (sorted acquisition then locks w's slot first, and the busy x
	// slot aborts the commit, restoring w — firing lock-acquire and
	// abort-release in one step). y and z need slots distinct from w's and
	// each other's, so their commit traffic fires no w rule.
	w := memory.Addr(0x100000)
	var picks []memory.Addr
	for a := w + 8; len(picks) < 3 && a < w+1<<20; a += 8 {
		la := tm.LockAddr(a)
		if la <= tm.LockAddr(w) {
			continue
		}
		dup := false
		for _, p := range picks {
			if tm.LockAddr(p) == la {
				dup = true
			}
		}
		if !dup {
			picks = append(picks, a)
		}
	}
	if len(picks) < 3 {
		t.Fatal("no three slot-distinct words after w's slot found")
	}
	x, y, z := picks[0], picks[1], picks[2]

	turn := memory.Addr(0x200000)
	seen := [2]int64{-1, -1} // lock word each thread's open read of w saw; -1 = none
	capture := func() []int {
		lw := m.Store.Load(tm.LockAddr(w))
		conc := []int{0, 0, 0, int(lw & 1), 0}
		for _, s := range seen {
			if s < 0 {
				continue
			}
			if uint64(s) == lw {
				conc[0]++
			} else {
				conc[1]++
			}
		}
		return conc
	}
	var concs [][]int
	step := func(e cpu.Env, k int, fn func()) {
		for e.Load(turn) != uint64(k) {
			e.Compute(20)
		}
		fn()
		concs = append(concs, capture())
		e.Store(turn, uint64(k+1))
	}

	m.SpawnAll(2, func(tid int, e cpu.Env) {
		ctx := tm.New(e, false)
		if tid == 1 {
			step(e, 0, func() { // step 1: read
				ctx.Begin() // rv = 0
				if _, ok := ctx.TryRead(w); !ok {
					t.Error("step 1: TryRead(w) aborted on a cold word")
				}
				seen[1] = int64(m.Store.Load(tm.LockAddr(w)))
			})
			step(e, 4, func() { // step 5: validate-abort
				ctx.Write(y, 1)
				if ctx.TryCommit() {
					t.Error("step 5: commit validated a stale read of w")
				}
				seen[1] = -1
			})
			step(e, 5, func() { // step 6: read (fresh transaction)
				ctx.Begin() // rv = 2
				if _, ok := ctx.TryRead(w); !ok {
					t.Error("step 6: re-read of the committed w aborted")
				}
				seen[1] = int64(m.Store.Load(tm.LockAddr(w)))
			})
			step(e, 7, func() { // step 8: validate-commit
				ctx.Write(y, 2)
				if !ctx.TryCommit() {
					t.Error("step 8: fully validated commit failed")
				}
				seen[1] = -1
			})
			return
		}
		step(e, 1, func() { // step 2: lock-acquire + abort-release
			if !e.CAS(tm.LockAddr(x), 0, 1) {
				t.Error("step 2: failed to seed x's lock word held")
			}
			ctx.Begin()
			ctx.Write(w, 5)
			ctx.Write(x, 5)
			if ctx.TryCommit() {
				t.Error("step 2: commit succeeded over x's held lock")
			}
		})
		step(e, 2, func() { e.Store(tm.LockAddr(x), 0) }) // step 3: unseed x
		step(e, 3, func() {                               // step 4: lock-acquire + write-back-release
			ctx.Begin() // rv = 0
			ctx.Write(w, 7)
			if !ctx.TryCommit() {
				t.Error("step 4: uncontended commit of w failed")
			}
		})
		step(e, 6, func() { // step 7: unrelated commit, no w rule
			ctx.Begin() // rv = 2
			ctx.Write(z, 3)
			if !ctx.TryCommit() {
				t.Error("step 7: unrelated commit of z failed")
			}
		})
	})
	if _, err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}

	// Pin the concrete run shape the script reasons about.
	if got := m.Store.Load(w); got != 7 {
		t.Fatalf("w = %d, want 7 (step 4's commit)", got)
	}
	if got := m.Store.Load(y); got != 2 {
		t.Fatalf("y = %d, want 2 (step 8's commit)", got)
	}
	if got := m.Store.Load(z); got != 3 {
		t.Fatalf("z = %d, want 3 (step 7's commit)", got)
	}
	if clk := m.Store.Load(tm.ClockAddr); clk != 4 {
		t.Fatalf("global clock = %d, want 4 (steps 4, 5, 7, 8 each bump)", clk)
	}
	if v := m.Checker.Violations(); len(v) != 0 {
		t.Fatalf("runtime TM shadow flagged the bridge scenario: %v", v)
	}

	if len(concs) != len(tmRules) {
		t.Fatalf("captured %d steps, script declares %d", len(concs), len(tmRules))
	}
	set := initSet(sys)
	for i, conc := range concs {
		set = fold(t, sys, set, tmRules[i])
		label := "no-tm-rule"
		if len(tmRules[i]) > 0 {
			label = tmRules[i][0]
		}
		set = narrow(t, sys, set, conc, label)
	}
}
