// Package chaos runs seeded fault-injection campaigns against the full
// machine model. Each seed deterministically derives a scenario — machine
// shape, lock/barrier mix, a suspend/resume/migrate disturbance schedule —
// and, when faults are enabled, a fault.Plan driving forced OMU steers,
// capacity steals, entry evictions, delayed acknowledgments, NoC jitter,
// coherence delays, and — on the TM backend — forced transaction aborts.
// Every run carries the safety-invariant checker and a tight cycle budget,
// so a bad interleaving surfaces as a structured violation or a watchdog
// liveness diagnosis rather than a silent hang.
//
// Options.TM reruns the same seeded scenarios with critical sections
// executing as internal/tm transactions (syncrt.TMLib), and
// Options.BrokenTMValidation is the TM detection selftest: validation is
// skipped, and the checker's TM shadow plus the lost-update count must catch
// the resulting atomicity breakage.
//
// The package is shared by the chaos tests (internal/machine) and the
// cmd/misar-chaos campaign driver, and provides greedy shrinking of a
// failing seed's fault plan to the minimal set of fault sites that still
// reproduces the failure.
package chaos

import (
	"errors"
	"math/rand"
	"sync"

	"misar/internal/cpu"
	"misar/internal/fault"
	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/sim"
	"misar/internal/syncrt"
)

// DefaultBudget bounds one chaos run; generous for the scenario sizes used
// (tens of lock/barrier iterations on at most 12 tiles, completing within
// tens of thousands of cycles) while still bounding a runaway seed.
const DefaultBudget = sim.Time(500_000_000)

// BrokenBudget is the default budget for BrokenOMU runs. A broken machine
// typically wedges with software spinners polling every few cycles — live
// events forever, so only the cycle budget stops the run. The budget is
// therefore the detection latency of the liveness watchdog, not a
// correctness bound, and 2M cycles is already ~100x a clean completion.
const BrokenBudget = sim.Time(2_000_000)

// Options configure a campaign.
type Options struct {
	// Faults enables the fault injector with fault.DefaultPlan(seed).
	Faults bool
	// BrokenOMU runs each machine with the OMU exclusivity check
	// deliberately skipped (core.Config.UnsafeNoOMUCheck) — the
	// fault-detection acceptance scenario. Such runs are EXPECTED to fail.
	BrokenOMU bool
	// TM runs each scenario on the software transactional-memory backend
	// (syncrt.TMLib on a software-only machine): critical sections execute
	// as internal/tm transactions, with the forced-abort fault site
	// (fault.Plan.TMAbortRate) active when Faults is set. The Go-side
	// holder oracle is skipped — overlapping optimistic attempts are the
	// protocol working as designed — but the lost-update check and the
	// checker's TM shadow still gate atomicity.
	TM bool
	// BrokenTMValidation runs the TM scenarios with commit-time read-set
	// validation deliberately skipped (syncrt.Lib.TMNoValidate) — the TM
	// detection acceptance scenario. Such runs are EXPECTED to fail with
	// tm-atomicity violations or lost updates. Implies TM.
	BrokenTMValidation bool
	// Budget is the per-run cycle budget; 0 means DefaultBudget.
	Budget sim.Time
}

// tmMode reports whether the scenario runs on the TM backend.
func (o Options) tmMode() bool { return o.TM || o.BrokenTMValidation }

// EffectiveBudget resolves the per-run cycle budget these options imply.
func (o Options) EffectiveBudget() sim.Time {
	if o.Budget != 0 {
		return o.Budget
	}
	if o.BrokenOMU {
		return BrokenBudget
	}
	return DefaultBudget
}

// Outcome is the structured result of one seed, JSON-ready for the
// misar-chaos report.
type Outcome struct {
	Seed   int64  `json:"seed"`
	Config string `json:"config"`
	Lib    string `json:"lib"`
	Cycles uint64 `json:"cycles"`
	// Err is the run error (liveness, safety, panic), empty on success.
	Err string `json:"err,omitempty"`
	// Violations are the safety-invariant checker's findings.
	Violations []fault.Violation `json:"violations,omitempty"`
	// Counts reports how many faults each injection site actually fired.
	Counts fault.Counts `json:"fault_counts"`
	// Oracle counts mutual-exclusion overlaps observed by the Go-side
	// holder oracle (independent of the invariant checker).
	Oracle int `json:"oracle_violations"`
	// LostUpdates counts per-lock counter mismatches after completion.
	LostUpdates int `json:"lost_updates"`
	// Diag is the watchdog diagnosis when the run failed liveness.
	Diag *machine.Diagnosis `json:"diag,omitempty"`
}

// Failed reports whether the seed found a problem (by any detector).
func (o *Outcome) Failed() bool {
	return o.Err != "" || o.Oracle > 0 || o.LostUpdates > 0 || len(o.Violations) > 0
}

// RunSeed executes one deterministic chaos scenario. The fault plan, when
// enabled, is fault.DefaultPlan(seed).
func RunSeed(seed int64, opt Options) *Outcome {
	plan := fault.Plan{}
	if opt.Faults {
		plan = fault.DefaultPlan(uint64(seed))
	}
	return RunPlan(seed, plan, opt)
}

// RunPlan executes the scenario derived from seed under an explicit fault
// plan (the shrinker's entry point: same scenario, reduced plan).
func RunPlan(seed int64, plan fault.Plan, opt Options) *Outcome {
	rng := rand.New(rand.NewSource(seed))
	tiles := 4 + rng.Intn(5)*2 // 4..12
	nthreads := tiles / 2      // home core 2i, spare 2i+1
	cfg := machine.MSAOMU(tiles, 1+rng.Intn(2))
	if rng.Intn(3) == 0 {
		cfg = machine.WithoutHWSync(cfg)
	}
	if rng.Intn(4) == 0 {
		cfg = machine.WithBloomOMU(cfg, 2)
	}
	if rng.Intn(4) == 0 {
		cfg = machine.WithFixedPriority(cfg)
	}
	cfg.Fault = plan
	cfg.Invariants = true
	cfg.MSA.UnsafeNoOMUCheck = opt.BrokenOMU
	if opt.tmMode() {
		// The TM backend never issues MSA instructions; run it on the
		// software-only machine the rest of the TM evaluation uses.
		cfg.Name = "tm-chaos"
		cfg.CPU.Mode = cpu.ModeAlwaysFail
	}
	m := machine.New(cfg)
	arena := syncrt.NewArena(0x100000)
	lib := syncrt.HWLib()
	if opt.tmMode() {
		lib = syncrt.TMLib()
		lib.TMNoValidate = opt.BrokenTMValidation
	}
	if rng.Intn(3) == 0 {
		lib.Cond = syncrt.CondNoSpurious
	}

	nlocks := 1 + rng.Intn(6)
	locks := arena.MutexArray(nlocks)
	counters := arena.DataArray(nlocks)
	bar := arena.Barrier(nthreads)
	useBarrier := rng.Intn(2) == 0
	iters := 6 + rng.Intn(10)
	qnodes := make([]memory.Addr, nthreads)
	for i := range qnodes {
		qnodes[i] = arena.QNode()
	}
	plans := make([][]int, nthreads)
	for i := range plans {
		plans[i] = make([]int, iters)
		for k := range plans[i] {
			plans[i][k] = rng.Intn(nlocks)
		}
	}

	// Direct mutual-exclusion oracle: the simulation is single-threaded, so
	// Go-side holder bookkeeping observes every overlap instantly. It checks
	// the same property as the invariant checker through an entirely
	// different mechanism, so a checker bug cannot mask a protocol bug.
	holder := make([]int, nlocks)
	for i := range holder {
		holder[i] = -1
	}
	oracle := 0
	var threads []*cpu.Thread
	for i := 0; i < nthreads; i++ {
		i := i
		th := m.Complex.Spawn(i, func(e cpu.Env) {
			rt := lib.Bind(e, qnodes[i])
			for k := 0; k < iters; k++ {
				l := plans[i][k]
				if opt.tmMode() {
					// Transactional read-modify-write: the body may re-run
					// on abort, so it touches only transactional state (no
					// holder bookkeeping — overlapping attempts are legal).
					// The read-to-commit window is long enough (100–119
					// cycles) for a conflicting commit to land inside it,
					// which is what makes a skipped validation observable.
					rt.Critical(locks[l], func() {
						v := rt.Load(counters[l])
						e.Compute(uint64(100 + (i*7+k*3)%20))
						rt.Store(counters[l], v+1)
					})
				} else {
					rt.Lock(locks[l])
					if holder[l] != -1 {
						oracle++
					}
					holder[l] = i
					v := e.Load(counters[l])
					e.Compute(uint64(5 + (i*7+k*3)%20))
					e.Store(counters[l], v+1)
					if holder[l] != i {
						oracle++
					}
					holder[l] = -1
					rt.Unlock(locks[l])
				}
				e.Compute(uint64(30 + (i*13+k*11)%60))
				if useBarrier {
					rt.Wait(bar)
				}
			}
		})
		threads = append(threads, th)
		m.Complex.Start(th, 2*i, 0)
	}

	// Random disturbance schedule: suspend a victim, resume it on its home
	// or spare core after a random delay (exercises the SUSPEND/ABORT and
	// migration paths under fault pressure). Disabled in TM mode: a
	// suspension parks a thread between an operation's architectural commit
	// and the transaction code that shadows it, which voids the TM
	// freshness checks' exactness argument (see fault/check.go) — the TM
	// campaigns rely on fault injection (jitter, delays, forced aborts) for
	// their schedule pressure instead.
	disturbances := rng.Intn(8)
	if opt.tmMode() {
		disturbances = 0
	}
	var schedule func(round int)
	schedule = func(round int) {
		if round >= disturbances {
			return
		}
		v := rng.Intn(nthreads)
		delay := sim.Time(500 + rng.Intn(4000))
		dst := 2*v + rng.Intn(2)
		m.Complex.Suspend(threads[v], func() {
			m.Engine.After(delay, func() {
				if !threads[v].Done() {
					m.Complex.Resume(threads[v], dst)
				}
				m.Engine.After(sim.Time(1000+rng.Intn(3000)), func() { schedule(round + 1) })
			})
		})
	}
	m.Engine.At(sim.Time(1000+rng.Intn(2000)), func() { schedule(0) })

	out := &Outcome{Seed: seed, Config: cfg.Name, Lib: lib.Desc()}
	end, err := m.Run(opt.EffectiveBudget())
	out.Cycles = uint64(end)
	out.Violations = m.Checker.Violations()
	if m.Injector != nil {
		out.Counts = m.Injector.Counts()
	}
	if err != nil {
		out.Err = err.Error()
		var le *machine.LivenessError
		if errors.As(err, &le) {
			out.Diag = le.Diag
			// The error string embeds the full diagnosis; keep Err short.
			out.Err = le.Reason
		}
		return out
	}
	// Completed: verify every planned acquisition landed exactly once.
	want := make([]uint64, nlocks)
	for i := range plans {
		for _, l := range plans[i] {
			want[l]++
		}
	}
	for l := 0; l < nlocks; l++ {
		if got := m.Store.Load(counters[l]); got != want[l] {
			out.LostUpdates++
		}
	}
	out.Oracle = oracle
	return out
}

// Campaign runs seeds [start, start+n) with up to parallel concurrent
// simulations and returns the outcomes in seed order. progress (may be nil)
// is called once per completed seed, serialized.
func Campaign(start, n int64, parallel int, opt Options, progress func(*Outcome)) []*Outcome {
	if parallel < 1 {
		parallel = 1
	}
	outs := make([]*Outcome, n)
	sem := make(chan struct{}, parallel)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := int64(0); i < n; i++ {
		i := i
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			o := RunSeed(start+i, opt)
			mu.Lock()
			outs[i] = o
			if progress != nil {
				progress(o)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return outs
}

// Shrink reduces a failing seed's fault plan to a minimal set of sites that
// still reproduces a failure: it greedily disables one injection site at a
// time and keeps the reduction whenever the scenario still fails. It returns
// the shrunken plan and the failing outcome under it. If the seed does not
// fail under the full plan, ok is false.
func Shrink(seed int64, opt Options) (plan fault.Plan, out *Outcome, ok bool) {
	plan = fault.DefaultPlan(uint64(seed))
	out = RunPlan(seed, plan, opt)
	if !out.Failed() {
		return plan, out, false
	}
	for _, site := range plan.Sites() {
		reduced := plan.Without(site)
		if !reduced.Enabled() {
			// Removing the last site disables injection entirely; only
			// accept that if the scenario fails even without faults.
			if o := RunPlan(seed, fault.Plan{}, opt); o.Failed() {
				return fault.Plan{}, o, true
			}
			continue
		}
		if o := RunPlan(seed, reduced, opt); o.Failed() {
			plan, out = reduced, o
		}
	}
	return plan, out, true
}
