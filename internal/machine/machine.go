// Package machine assembles the full tiled many-core model: per tile a core
// with private L1, a slice of the distributed LLC with its directory, an MSA
// slice with its OMU, and a mesh router — exactly the organization of the
// paper's §3. It also provides the named configurations the evaluation
// compares (Baseline software, MSA-0, MSA/OMU-N, MSA-inf, Ideal, and the
// Fig. 7/8/9 ablations).
package machine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"

	"misar/internal/coherence"
	corepkg "misar/internal/core"
	"misar/internal/cpu"
	"misar/internal/fault"
	"misar/internal/isa"
	"misar/internal/memory"
	"misar/internal/metrics"
	"misar/internal/noc"
	"misar/internal/obs"
	"misar/internal/sim"
	"misar/internal/stats"
)

// cohMsgNames decodes coherence.MsgKind values for the flight recorder's
// FCoh events. Registered from here because obs cannot import coherence
// (the dependency points the other way).
var cohMsgNames = func() []string {
	names := make([]string, int(coherence.MsgFwdMiss)+1)
	for k := range names {
		names[k] = coherence.MsgKind(k).String()
	}
	return names
}()

func init() { obs.RegisterArgNames(obs.FCoh, cohMsgNames) }

// Config describes one machine.
type Config struct {
	Name  string
	Tiles int
	NoC   noc.Config
	L1    coherence.L1Config
	Dir   coherence.DirConfig
	MSA   corepkg.Config
	CPU   cpu.Config
	// Metrics attaches a metrics.Registry to the machine: the MSA slices
	// record per-tile instruments inline, and Run fills in machine-wide
	// totals from the component statistics when the simulation finishes.
	// A plain bool (rather than a registry pointer) keeps Config a pure
	// value: it serializes to JSON and fingerprints deterministically for
	// the experiment harness's memoization keys.
	Metrics bool
	// Fault configures deterministic fault injection (see internal/fault).
	// The zero value disables every site; such a machine constructs no
	// injector and pays one nil check per site. Like Metrics, Plan is a pure
	// value so Config keeps serializing and fingerprinting cleanly.
	Fault fault.Plan
	// Invariants attaches the runtime safety checker (OMU exclusivity,
	// per-lock mutual exclusion, barrier-epoch separation) and feeds the
	// liveness watchdog's software-world view. The checker is pure Go
	// bookkeeping — it schedules no events and issues no simulated
	// operations — so enabling it cannot change simulated timing.
	Invariants bool
	// Shards selects the conservative parallel kernel: 0 or 1 is the serial
	// event loop; N>1 partitions the mesh into N contiguous row bands, each
	// advancing on its own engine in lookahead-bounded time windows (see
	// internal/sim ShardGroup and DESIGN.md §14). Sharding changes which
	// goroutine executes an event, never which events exist or their order:
	// every shard count gives the serial run's results. The Name does not
	// mention Shards, and results are shared across shard counts.
	Shards int
}

// ShardCount normalizes Cfg.Shards: 0 means serial, i.e. one shard.
func (c Config) ShardCount() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

// meshDims picks the squarest W×H decomposition for n tiles.
func meshDims(n int) (int, int) {
	w := 1
	for w*w < n {
		w++
	}
	return w, (n + w - 1) / w
}

// Default returns the standard MSA/OMU-2 machine with the given tile count.
func Default(tiles int) Config {
	w, h := meshDims(tiles)
	return Config{
		Name:  fmt.Sprintf("MSA/OMU-2 %dc", tiles),
		Tiles: tiles,
		NoC:   noc.DefaultConfig(w, h),
		L1:    coherence.DefaultL1Config(),
		Dir:   coherence.DefaultDirConfig(),
		MSA:   corepkg.DefaultConfig(),
		CPU:   cpu.DefaultConfig(),
	}
}

// MSAOMU returns the MSA/OMU-N configuration.
func MSAOMU(tiles, entries int) Config {
	c := Default(tiles)
	c.Name = fmt.Sprintf("MSA/OMU-%d %dc", entries, tiles)
	c.MSA.Entries = entries
	return c
}

// MSA0 returns the paper's MSA-0: the new instructions exist but always
// FAIL locally; everything runs in the software library.
func MSA0(tiles int) Config {
	c := Default(tiles)
	c.Name = fmt.Sprintf("MSA-0 %dc", tiles)
	c.CPU.Mode = cpu.ModeAlwaysFail
	c.CPU.HWSyncOpt = false
	return c
}

// MSAInf returns the infinite-entry accelerator (no overflow possible).
func MSAInf(tiles int) Config {
	c := Default(tiles)
	c.Name = fmt.Sprintf("MSA-inf %dc", tiles)
	c.MSA.Entries = -1
	return c
}

// Ideal returns zero-latency synchronization.
func Ideal(tiles int) Config {
	c := Default(tiles)
	c.Name = fmt.Sprintf("Ideal %dc", tiles)
	c.CPU.Mode = cpu.ModeIdeal
	c.CPU.HWSyncOpt = false
	return c
}

// WithoutOMU disables overflow management (Fig. 7 baseline).
func WithoutOMU(c Config) Config {
	c.Name = c.Name + " noOMU"
	c.MSA.OMUEnabled = false
	return c
}

// WithFixedPriority replaces the NBTC round-robin grant with
// lowest-core-first selection (ablation A3).
func WithFixedPriority(c Config) Config {
	c.Name = c.Name + " fixedPrio"
	c.MSA.FixedPriority = true
	return c
}

// WithBloomOMU swaps the plain OMU counters for the counting Bloom filter
// the paper suggests in §3.2, with k hash functions over the same counter
// budget.
func WithBloomOMU(c Config, k int) Config {
	c.Name = fmt.Sprintf("%s bloom(k=%d)", c.Name, k)
	c.MSA.OMUBloom = true
	c.MSA.OMUHashes = k
	return c
}

// WithoutHWSync disables the §5 optimization (Fig. 8 baseline).
func WithoutHWSync(c Config) Config {
	c.Name = c.Name + " noHWSync"
	c.MSA.HWSyncOpt = false
	c.CPU.HWSyncOpt = false
	return c
}

// LockOnly restricts the MSA to lock acceleration (Fig. 9).
func LockOnly(c Config) Config {
	c.Name = c.Name + " lockOnly"
	c.MSA.Barriers = false
	c.MSA.Conds = false
	return c
}

// BarrierOnly restricts the MSA to barrier acceleration (Fig. 9).
func BarrierOnly(c Config) Config {
	c.Name = c.Name + " barrierOnly"
	c.MSA.Locks = false
	c.MSA.Conds = false
	return c
}

// Machine is a fully wired model instance.
type Machine struct {
	Cfg    Config
	Engine *sim.Engine // serial engine, or shard 0's engine when sharded
	// Group is the conservative shard coordinator (nil on a serial machine).
	// External schedulers (examples, chaos scenarios, ablation helpers) that
	// call m.Engine.At directly require a serial machine.
	Group  *sim.ShardGroup
	Net    *noc.Network
	Store  *memory.Store
	L1s    []*coherence.L1
	Dirs   []*coherence.Directory
	Slices []*corepkg.Slice
	Cores  []*cpu.Core
	// Complex is shard 0's scheduler; Complexes holds one per shard (len 1
	// on a serial machine). Thread state for diagnostics should go through
	// Threads()/RunningThreads(), which merge across shards.
	Complex   *cpu.Complex
	Complexes []*cpu.Complex
	shardOf   []int // tile -> shard (nil on serial machines)
	// Metrics is the machine's instrument registry (nil unless Cfg.Metrics).
	Metrics *metrics.Registry
	// Injector drives fault injection (nil unless Cfg.Fault enables a site).
	Injector *fault.Injector
	// Checker records safety-invariant violations (nil unless Cfg.Invariants).
	Checker *fault.Checker
	// Flights are the always-on flight recorders, one single-writer ring
	// per shard: the most recent protocol events (core sync issues and
	// completions, MSA ops, OMU steers, entry lifecycle, coherence
	// deliveries), merged by timestamp in FlightEvents and dumped into
	// LivenessError/SafetyError/PanicError so failures carry their own last
	// moments. They are not a Config knob — Config stays a pure value for
	// memo/store fingerprints — and recording is allocation-free, so every
	// machine carries them. ResizeFlight turns them into a protocol trace.
	Flights []*obs.FlightRecorder

	// regs holds the per-shard metric registries (len 1 serial); Metrics
	// aliases regs[0], into which collectMetrics merges the rest.
	regs []*metrics.Registry

	collected bool // machine-wide totals already folded into Metrics
}

// ShardOf returns the shard owning tile (always 0 on a serial machine).
func (m *Machine) ShardOf(tile int) int {
	if m.shardOf == nil {
		return 0
	}
	return m.shardOf[tile]
}

// Now returns the machine's completion clock: the serial engine's time, or
// the latest shard clock on a sharded machine. Call between windows (the
// run loop, error paths, and post-run reporting all qualify).
func (m *Machine) Now() sim.Time {
	if m.Group == nil {
		return m.Engine.Now()
	}
	return m.Group.MaxNow()
}

// Threads returns every spawned thread, shard 0 first (identical to
// Complex.Threads() on a serial machine).
func (m *Machine) Threads() []*cpu.Thread {
	if len(m.Complexes) == 1 {
		return m.Complex.Threads()
	}
	var out []*cpu.Thread
	for _, x := range m.Complexes {
		out = append(out, x.Threads()...)
	}
	return out
}

// RunningThreads sums started-but-unfinished threads across shards.
func (m *Machine) RunningThreads() int {
	n := 0
	for _, x := range m.Complexes {
		n += x.Running()
	}
	return n
}

// FlightEvents merges the per-shard flight-recorder rings into one
// timestamp-ordered dump (stable by shard at equal cycles). On a serial
// machine it is exactly the one ring's Events().
func (m *Machine) FlightEvents() []obs.FlightEvent {
	if len(m.Flights) == 1 {
		return m.Flights[0].Events()
	}
	var all []obs.FlightEvent
	for _, f := range m.Flights {
		all = append(all, f.Events()...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}

// shardMap partitions the mesh into contiguous row bands, one per shard:
// tile t of a width-w mesh with rowsPer rows per shard lives on shard
// (t/w)/rowsPer. Contiguity matters — boundary crossings (and thus
// cross-shard mail) happen only on the north/south links between bands.
// The map covers every mesh POSITION (width×height), not just the
// populated tiles: on a ragged mesh (e.g. 8 tiles on 3×3) the trailing
// core-less routers still carry pass-through traffic, so their hop events
// need a shard owner like any other.
func shardMap(tiles, width, height, shards int) []int {
	rowsPer := height / shards
	out := make([]int, tiles)
	for t := range out {
		s := (t / width) / rowsPer
		if s >= shards {
			s = shards - 1
		}
		out[t] = s
	}
	return out
}

// New builds and wires a machine. With Cfg.Shards > 1 the machine runs on
// the conservative parallel kernel: one engine per shard, cross-shard NoC
// hops handed over through the shard group, and every piece of mutable
// per-tile state (component structs, payload pools, flight rings, metric
// registries) owned by its tile's shard. Combinations that would share
// zero-latency mutable state across shards (Ideal mode, fault injection)
// panic here; Validate reports them as errors first for configurations
// arriving from files.
func New(cfg Config) *Machine {
	shards := cfg.ShardCount()
	var group *sim.ShardGroup
	var engine *sim.Engine
	if shards > 1 {
		if err := validateSharding(cfg); err != nil {
			panic("machine: " + err.Error())
		}
		group = sim.NewShardGroup(shards, cfg.NoC.RouterLatency+cfg.NoC.LinkLatency)
		engine = group.Engine(0)
	} else {
		engine = sim.NewEngine()
	}
	net := noc.New(engine, cfg.NoC)
	if net.Tiles() < cfg.Tiles {
		panic("machine: mesh smaller than tile count")
	}
	m := &Machine{
		Cfg:    cfg,
		Engine: engine,
		Group:  group,
		Net:    net,
		L1s:    make([]*coherence.L1, cfg.Tiles),
		Dirs:   make([]*coherence.Directory, cfg.Tiles),
		Slices: make([]*corepkg.Slice, cfg.Tiles),
		Cores:  make([]*cpu.Core, cfg.Tiles),
	}
	if shards > 1 {
		m.Store = memory.NewSharedStore()
		m.shardOf = shardMap(net.Tiles(), cfg.NoC.Width, cfg.NoC.Height, shards)
		net.SetShards(group, func(t int) int { return m.shardOf[t] })
	} else {
		m.Store = memory.NewStore()
	}
	engineOf := func(tile int) *sim.Engine {
		if group == nil {
			return engine
		}
		return group.Engine(m.shardOf[tile])
	}
	m.Flights = make([]*obs.FlightRecorder, shards)
	for s := range m.Flights {
		m.Flights[s] = obs.NewFlightRecorder(0)
	}
	var ideal *cpu.Ideal
	if cfg.CPU.Mode == cpu.ModeIdeal {
		ideal = cpu.NewIdeal()
	}
	// One payload pool set per shard (one total on a serial machine). The
	// attach handler below is the sole consumer of every payload (the
	// coherence controllers, slices, and cores retain copies of the fields
	// they need, never the pointer — see the pool doc comments), so each
	// record is recycled the moment its Handle call returns — always into
	// the pool of the shard whose goroutine is executing.
	msgPools := make([]*coherence.MsgPool, shards)
	reqPools := make([]*corepkg.ReqPool, shards)
	respPools := make([]*corepkg.RespPool, shards)
	for s := 0; s < shards; s++ {
		msgPools[s] = new(coherence.MsgPool)
		reqPools[s] = new(corepkg.ReqPool)
		respPools[s] = new(corepkg.RespPool)
	}
	for i := 0; i < cfg.Tiles; i++ {
		i := i
		eng := engineOf(i)
		shard := m.ShardOf(i)
		msgPool, reqPool, respPool := msgPools[shard], reqPools[shard], respPools[shard]
		flight := m.Flights[shard]
		// All component senders go through the network's pooled Post path:
		// the machine's attach handler consumes each message synchronously,
		// so the Message structs recycle and the send fan-out allocates only
		// the payloads.
		sendCoh := func(dst int, msg *coherence.Msg) {
			net.Post(i, dst, msg.Bytes(), msg)
		}
		m.L1s[i] = coherence.NewL1(i, cfg.Tiles, cfg.L1, eng, m.Store, sendCoh)
		m.L1s[i].SetMsgPool(msgPool)
		m.Dirs[i] = coherence.NewDirectory(i, cfg.Tiles, cfg.Dir, eng, sendCoh)
		m.Dirs[i].SetMsgPool(msgPool)
		m.Slices[i] = corepkg.NewSlice(i, cfg.Tiles, cfg.MSA, eng, m.Dirs[i],
			func(c int, r *corepkg.Resp) {
				net.Post(i, c, corepkg.RespBytes, r)
			},
			func(tile int, msg *corepkg.MsaMsg) {
				net.Post(i, tile, corepkg.MsaBytes, msg)
			})
		m.Cores[i] = cpu.NewCore(i, cfg.Tiles, cfg.CPU, eng, m.L1s[i],
			func(home int, r *corepkg.Req) {
				net.Post(i, home, corepkg.ReqBytes, r)
			}, ideal)
		m.Cores[i].SetReqPool(reqPool)
		m.Cores[i].SetFlight(flight)
		m.Slices[i].SetRespPool(respPool)
		m.Slices[i].SetFlight(flight)
		net.Attach(i, func(nm *noc.Message) {
			switch p := nm.Payload.(type) {
			case *coherence.Msg:
				// Every coherence message funnels through here on delivery,
				// so one record covers NoC traffic and protocol transitions.
				flight.Record(obs.FlightEvent{
					At: eng.Now(), Kind: obs.FCoh, Tile: int16(i),
					Core: int16(p.Core), Addr: p.Line, Arg: uint32(p.Kind),
				})
				switch p.Kind {
				case coherence.RspDataS, coherence.RspDataE, coherence.MsgInv, coherence.MsgFwd:
					m.L1s[i].Handle(p)
				default:
					m.Dirs[i].Handle(p)
				}
				msgPool.Put(p)
			case *corepkg.Req:
				m.Slices[i].HandleReq(p)
				reqPool.Put(p)
			case *corepkg.Resp:
				m.Cores[i].HandleResp(p)
				respPool.Put(p)
			case *corepkg.MsaMsg:
				m.Slices[i].HandleMsa(p)
			default:
				panic(fmt.Sprintf("machine: tile %d got unknown payload %T", i, nm.Payload))
			}
		})
	}
	if cfg.Fault.Enabled() {
		m.Injector = fault.New(cfg.Fault)
		for _, sl := range m.Slices {
			sl.SetInjector(m.Injector)
		}
		for _, c := range m.Cores {
			// Thread code reaches the injector via Env.Faults (the TM
			// spurious-abort site); fault plans only run on serial machines
			// (validateSharding), so the single-threaded contract holds.
			c.SetInjector(m.Injector)
		}
		net.SetDelay(m.Injector.MsgDelay)
		for _, d := range m.Dirs {
			d.SetExtraLatency(m.Injector.CohDelay)
		}
	}
	if cfg.Invariants {
		if group != nil {
			// The checker is shared bookkeeping fed from every shard: give
			// it the (monotone, barrier-published) window clock and a lock.
			m.Checker = fault.NewChecker(group.Now)
			m.Checker.Synchronize()
			net.SetDeliveryCheck(m.Checker.ShardDelivery)
		} else {
			m.Checker = fault.NewChecker(engine.Now)
		}
		for _, sl := range m.Slices {
			sl.SetChecker(m.Checker)
		}
		for _, c := range m.Cores {
			c.SetChecker(m.Checker)
		}
	}
	if cfg.Metrics {
		m.regs = make([]*metrics.Registry, shards)
		for s := range m.regs {
			m.regs[s] = metrics.NewRegistry()
		}
		m.Metrics = m.regs[0]
		for i, sl := range m.Slices {
			sl.SetMetrics(m.regs[m.ShardOf(i)])
		}
		for i, c := range m.Cores {
			c.SetMetrics(m.regs[m.ShardOf(i)])
		}
		// The checker's violation counter lives in shard 0's registry; its
		// increments happen under the checker lock in sharded mode.
		m.Checker.AttachMetrics(m.Metrics)
	}
	if group != nil {
		m.Complexes = make([]*cpu.Complex, shards)
		for s := range m.Complexes {
			m.Complexes[s] = cpu.NewComplex(group.Engine(s), m.Cores)
		}
	} else {
		m.Complexes = []*cpu.Complex{cpu.NewComplex(engine, m.Cores)}
	}
	m.Complex = m.Complexes[0]
	return m
}

// SpawnAll starts one thread per core (thread i on core i) at time 0,
// running body with the thread id. On a sharded machine each thread is
// spawned on its core's shard complex, so its start event and all its
// synchronous handoffs stay on the owning shard's engine.
func (m *Machine) SpawnAll(n int, body func(tid int, e cpu.Env)) {
	if n > m.Cfg.Tiles {
		panic("machine: more threads than cores")
	}
	for i := 0; i < n; i++ {
		i := i
		x := m.Complexes[m.ShardOf(i)]
		t := x.Spawn(i, func(e cpu.Env) { body(i, e) })
		x.Start(t, i, 0)
	}
}

// Run drives the simulation until all threads finish. It returns the final
// cycle, or an error on deadlock, timeout, a panicking thread body, a
// panicking component, or (with Cfg.Invariants) recorded safety violations.
// Liveness failures come back as *LivenessError carrying a full watchdog
// Diagnosis instead of a bare string, so a hung fault-injection run is
// triageable from the error value alone.
func (m *Machine) Run(deadline sim.Time) (sim.Time, error) {
	return m.RunCtx(context.Background(), deadline)
}

// cancelCheckEvery spaces RunCtx's cancellation polls: one context check per
// 64Ki fired events keeps the per-event hot path untouched while bounding
// cancellation latency to a few milliseconds of wall clock.
const cancelCheckEvery = 1 << 16

// shardCancelCheckWindows spaces cancellation polls on the sharded kernel,
// where the natural poll point is the window barrier: 4Ki windows is a few
// thousand simulated cycles between polls, comparable wall-clock spacing to
// the serial constant.
const shardCancelCheckWindows = 1 << 12

// RunCtx is Run with caller cancellation. When ctx ends before the
// simulation finishes, the error is a *CancelError wrapping the context's
// cause. On every error return the unfinished threads are torn down (their
// bodies unwind, nothing leaks). A context that can never be cancelled
// (ctx.Done() == nil) costs nothing: the run takes the unpolled RunUntil
// path.
func (m *Machine) RunCtx(ctx context.Context, deadline sim.Time) (_ sim.Time, err error) {
	defer m.collectMetrics()
	defer func() {
		if r := recover(); r != nil {
			// A component (slice, directory, network) panicked mid-event.
			// Thread bodies are recovered inside their own coroutines, so
			// this is a model bug, not a workload bug: surface it as a
			// structured error the harness can tag. On the sharded kernel
			// the panic arrives pre-wrapped as *ShardPanic with the faulting
			// shard's own stack.
			if sp, ok := r.(*sim.ShardPanic); ok {
				err = &PanicError{Value: sp.Value, Stack: sp.Stack, Flight: m.FlightEvents()}
			} else {
				err = &PanicError{Value: r, Stack: string(debug.Stack()), Flight: m.FlightEvents()}
			}
		}
		// A failed run is abandoned: unwind every unfinished thread, after
		// the error has taken its diagnosis and flight dump, so none of
		// them outlives the run.
		if err != nil {
			for _, x := range m.Complexes {
				x.Kill()
			}
		}
	}()
	var drained bool
	switch {
	case m.Group != nil:
		var interrupt func() bool
		if ctx.Done() != nil {
			if ctx.Err() != nil {
				return m.Now(), &CancelError{Cause: context.Cause(ctx), At: m.Now()}
			}
			interrupt = func() bool { return ctx.Err() != nil }
		}
		var interrupted bool
		drained, interrupted = m.Group.RunUntilCheck(deadline, shardCancelCheckWindows, interrupt)
		if interrupted {
			return m.Now(), &CancelError{Cause: context.Cause(ctx), At: m.Now()}
		}
	case ctx.Done() == nil:
		drained = m.Engine.RunUntil(deadline)
	default:
		if ctx.Err() != nil {
			return m.Now(), &CancelError{Cause: context.Cause(ctx), At: m.Now()}
		}
		var interrupted bool
		drained, interrupted = m.Engine.RunUntilCheck(deadline, cancelCheckEvery,
			func() bool { return ctx.Err() != nil })
		if interrupted {
			return m.Now(), &CancelError{Cause: context.Cause(ctx), At: m.Now()}
		}
	}
	for _, t := range m.Threads() {
		if t.Err() != nil {
			return m.Now(), fmt.Errorf("machine: thread %d panicked: %v", t.ID(), t.Err())
		}
	}
	if !drained {
		reason := fmt.Sprintf("machine: deadline %d reached with work pending", deadline)
		return m.Now(), &LivenessError{Reason: reason, Diag: m.Diagnose(reason), Flight: m.FlightEvents()}
	}
	if r := m.RunningThreads(); r > 0 {
		reason := fmt.Sprintf("machine: quiesced with %d threads blocked (deadlock)", r)
		return m.Now(), &LivenessError{Reason: reason, Diag: m.Diagnose(reason), Flight: m.FlightEvents()}
	}
	if v := m.Checker.Violations(); len(v) > 0 {
		return m.Now(), &SafetyError{Violations: v, Flight: m.FlightEvents()}
	}
	return m.Now(), nil
}

// latNames labels the cpu.LatencyKind histogram classes for metric names.
var latNames = [...]struct {
	kind cpu.LatencyKind
	name string
}{
	{cpu.LatLock, "lock"},
	{cpu.LatUnlock, "unlock"},
	{cpu.LatBarrier, "barrier"},
	{cpu.LatCond, "cond"},
}

// collectMetrics folds machine-wide totals — MSA operation mix, OMU
// activity, coherence message counts, core stall breakdown, NoC traffic —
// from the component statistics into the registry. The MSA per-tile entry
// and steer counters are recorded inline during simulation; everything
// collected here already exists in a component Stats struct, so the hot
// paths pay nothing for it. Idempotent; a no-op on an unmetered machine.
func (m *Machine) collectMetrics() {
	r := m.Metrics
	if r == nil || m.collected {
		return
	}
	m.collected = true

	// Sharded machines recorded tile-local instruments into per-shard
	// registries; fold shards 1..K-1 into shard 0's before adding the
	// machine-wide totals. The merge order is fixed (shard index), so the
	// combined registry is deterministic for a deterministic run.
	for _, reg := range m.regs[1:] {
		r.Merge(reg)
	}

	r.Gauge("sim.cycles").Observe(uint64(m.Now()))

	// Injected faults, per site, from the injector's own tally.
	if m.Injector != nil {
		fc := m.Injector.Counts()
		r.Counter("fault.forced_steers").Add(fc.Steers)
		r.Counter("fault.capacity_steals").Add(fc.CapSteals)
		r.Counter("fault.forced_evicts").Add(fc.Evicts)
		r.Counter("fault.ack_delays").Add(fc.AckDelays)
		r.Counter("fault.noc_jitters").Add(fc.Jitters)
		r.Counter("fault.coh_delays").Add(fc.CohDelays)
		r.Counter("fault.tm_aborts").Add(fc.TMAborts)
		r.Counter("fault.delay_cycles").Add(fc.DelayCycles)
	}

	// MSA operation mix (machine totals; per-tile entry/steer counters are
	// recorded inline by the slices).
	ms := m.MSAStats()
	r.Counter("msa.lock_hw").Add(ms.LockHW)
	r.Counter("msa.lock_sw").Add(ms.LockSW)
	r.Counter("msa.unlock_hw").Add(ms.UnlockHW)
	r.Counter("msa.unlock_sw").Add(ms.UnlockSW)
	r.Counter("msa.barrier_hw").Add(ms.BarrierHW)
	r.Counter("msa.barrier_sw").Add(ms.BarrierSW)
	r.Counter("msa.cond_hw").Add(ms.CondHW)
	r.Counter("msa.cond_sw").Add(ms.CondSW)
	r.Counter("msa.silent_locks").Add(ms.SilentLocks)
	r.Counter("msa.omu_steers").Add(ms.OMUSteers)
	r.Counter("msa.capacity_steers").Add(ms.CapacitySteers)

	for i, sl := range m.Slices {
		os := sl.OMUStats()
		r.Counter(metrics.TileName("omu", i, "incs")).Add(os.Incs)
		r.Counter(metrics.TileName("omu", i, "decs")).Add(os.Decs)
		r.Gauge(metrics.TileName("omu", i, "max_level")).Observe(uint64(os.MaxValue))
	}

	// Coherence message counts by type, plus directory pressure.
	var l1 coherence.L1Stats
	var dir coherence.DirStats
	maxQueue := 0
	for i := range m.L1s {
		ls, ds := m.L1s[i].Stats(), m.Dirs[i].Stats()
		l1.Loads += ls.Loads
		l1.Stores += ls.Stores
		l1.RMWs += ls.RMWs
		l1.Hits += ls.Hits
		l1.Misses += ls.Misses
		l1.Evictions += ls.Evictions
		l1.Writebacks += ls.Writebacks
		l1.InvReceived += ls.InvReceived
		l1.FwdReceived += ls.FwdReceived
		l1.HWSyncSet += ls.HWSyncSet
		l1.HWSyncCleared += ls.HWSyncCleared
		dir.GetS += ds.GetS
		dir.GetX += ds.GetX
		dir.Grants += ds.Grants
		dir.InvSent += ds.InvSent
		dir.FwdSent += ds.FwdSent
		dir.Writebacks += ds.Writebacks
		dir.ColdMisses += ds.ColdMisses
		dir.Conflicts += ds.Conflicts
		if ds.MaxQueueDepth > maxQueue {
			maxQueue = ds.MaxQueueDepth
		}
	}
	r.Counter("l1.loads").Add(l1.Loads)
	r.Counter("l1.stores").Add(l1.Stores)
	r.Counter("l1.rmws").Add(l1.RMWs)
	r.Counter("l1.hits").Add(l1.Hits)
	r.Counter("l1.misses").Add(l1.Misses)
	r.Counter("l1.evictions").Add(l1.Evictions)
	r.Counter("l1.writebacks").Add(l1.Writebacks)
	r.Counter("l1.inv_received").Add(l1.InvReceived)
	r.Counter("l1.fwd_received").Add(l1.FwdReceived)
	r.Counter("l1.hwsync_set").Add(l1.HWSyncSet)
	r.Counter("l1.hwsync_cleared").Add(l1.HWSyncCleared)
	r.Counter("dir.gets").Add(dir.GetS)
	r.Counter("dir.getx").Add(dir.GetX)
	r.Counter("dir.grants").Add(dir.Grants)
	r.Counter("dir.inv_sent").Add(dir.InvSent)
	r.Counter("dir.fwd_sent").Add(dir.FwdSent)
	r.Counter("dir.writebacks").Add(dir.Writebacks)
	r.Counter("dir.cold_misses").Add(dir.ColdMisses)
	r.Counter("dir.conflicts").Add(dir.Conflicts)
	r.Gauge("dir.max_queue_depth").Observe(uint64(maxQueue))

	// Core activity: per-op issue counts, stall-cycle breakdown by cause,
	// and the per-operation latency histograms.
	var cs cpu.Stats
	for i, c := range m.Cores {
		st := c.Stats()
		for op, v := range st.SyncIssued {
			cs.SyncIssued[op] += v
		}
		cs.SilentLocks += st.SilentLocks
		cs.SyncStallCycles += st.SyncStallCycles
		for k, v := range st.SyncStallByKind {
			cs.SyncStallByKind[k] += v
		}
		cs.ComputeCycles += st.ComputeCycles
		cs.Suspends += st.Suspends
		cs.Resumes += st.Resumes
		cs.Migrations += st.Migrations
		r.Counter(metrics.TileName("cpu", i, "sync_stall_cycles")).Add(uint64(st.SyncStallCycles))
	}
	for op, v := range cs.SyncIssued {
		if v > 0 {
			r.Counter("cpu.sync_issued." + isa.SyncOp(op).String()).Add(v)
		}
	}
	r.Counter("cpu.silent_locks").Add(cs.SilentLocks)
	r.Counter("cpu.sync_stall_cycles").Add(uint64(cs.SyncStallCycles))
	r.Counter("cpu.compute_cycles").Add(cs.ComputeCycles)
	r.Counter("cpu.suspends").Add(cs.Suspends)
	r.Counter("cpu.resumes").Add(cs.Resumes)
	r.Counter("cpu.migrations").Add(cs.Migrations)
	for _, ln := range latNames {
		r.Counter("cpu.stall_" + ln.name + "_cycles").Add(uint64(cs.SyncStallByKind[ln.kind]))
		h := m.Latency(ln.kind)
		if h.Count() > 0 {
			r.Histogram("cpu.latency." + ln.name).Merge(&h)
		}
	}

	// NoC traffic: totals, the hop-distance distribution, and per-link flit
	// counts for the four directed links of every router.
	ns := m.Net.Stats()
	r.Counter("noc.messages").Add(ns.Messages)
	r.Counter("noc.flits").Add(ns.Flits)
	r.Counter("noc.hop_count").Add(ns.HopCount)
	r.Counter("noc.total_latency").Add(uint64(ns.TotalLatency))
	r.Gauge("noc.max_latency").Observe(uint64(ns.MaxLatency))
	r.Histogram("noc.hops").Merge(&ns.HopHist)
	for i := 0; i < m.Cfg.Tiles; i++ {
		for d, name := range noc.DirNames {
			if f := m.Net.LinkFlits(i, d); f > 0 {
				r.Counter(metrics.TileName("noc", i, "link_flits."+name)).Add(f)
			}
		}
	}
}

// MetricsReport builds the per-run observability artifact from the metered
// machine: identification plus a full snapshot. Returns nil on an unmetered
// machine. kind is "app" or "micro"; app names the workload; lib describes
// the synchronization library (syncrt.Lib.Desc).
func (m *Machine) MetricsReport(kind, app, lib string) *metrics.Report {
	if m.Metrics == nil {
		return nil
	}
	m.collectMetrics()
	return &metrics.Report{
		Schema:  metrics.ReportSchema,
		Kind:    kind,
		App:     app,
		Config:  m.Cfg.Name,
		Lib:     lib,
		Tiles:   m.Cfg.Tiles,
		Cycles:  uint64(m.Now()),
		Metrics: m.Metrics.Snapshot(),
	}
}

// ResizeFlight turns the flight rings into a protocol trace: it resizes
// every shard's ring in place to capacity events (per shard) and, when
// filter is non-nil, restricts recording to that synchronization address.
// Call it before Run; the recorders wired into the components stay the same,
// so FlightEvents returns the merged timeline afterwards.
func (m *Machine) ResizeFlight(capacity int, filter *memory.Addr) {
	for _, f := range m.Flights {
		f.Resize(capacity)
		if filter != nil {
			f.SetFilter(*filter)
		}
	}
}

// FlightDump snapshots the merged flight rings (see FlightEvents), with
// Total and Filtered summed over shards.
func (m *Machine) FlightDump() obs.FlightDump {
	d := obs.FlightDump{Schema: obs.FlightDumpSchema, Events: m.FlightEvents()}
	for _, f := range m.Flights {
		d.Total += f.Total()
		d.Filtered += f.Filtered()
	}
	return d
}

// MSAStats aggregates all slices' statistics.
func (m *Machine) MSAStats() corepkg.Stats {
	var s corepkg.Stats
	for _, sl := range m.Slices {
		st := sl.Stats()
		s.Add(&st)
	}
	return s
}

// Coverage returns the fraction of synchronization operations completed in
// hardware. For MSA-0 and Ideal it reports 0 and 1 respectively by
// definition.
func (m *Machine) Coverage() float64 {
	switch m.Cfg.CPU.Mode {
	case cpu.ModeAlwaysFail:
		return 0
	case cpu.ModeIdeal:
		return 1
	}
	s := m.MSAStats()
	hw, sw := s.HWOps(), s.SWOps()
	if hw+sw == 0 {
		return 0
	}
	return float64(hw) / float64(hw+sw)
}

// Latency merges every core's histogram for one operation class.
func (m *Machine) Latency(k cpu.LatencyKind) stats.Histogram {
	var h stats.Histogram
	for _, c := range m.Cores {
		h.Merge(c.Latency(k))
	}
	return h
}

// SyncOps reports total synchronization instructions issued by all cores.
func (m *Machine) SyncOps() uint64 {
	var n uint64
	for _, c := range m.Cores {
		st := c.Stats()
		for _, v := range st.SyncIssued {
			n += v
		}
	}
	return n
}
