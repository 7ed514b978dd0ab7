// Package fault is a seeded, deterministic fault injector plus a set of
// runtime safety-invariant checkers for the MiSAR machine. Both follow the
// nil-receiver-safe hook contract established by metrics.Registry and
// obs.FlightRecorder: every method is safe to call on a nil receiver and does
// nothing, so an uninstrumented machine pays exactly one pointer comparison
// per potential injection or check site.
//
// The injector perturbs the machine at the MSA/OMU boundary the paper cares
// about (PAPER.md §3-4): forced OMU steers, artificial capacity reduction,
// spurious standby evictions (un-steers), delayed MSA acknowledgments, NoC
// per-message latency jitter, and delayed coherence replies. All decisions
// come from a splitmix64 stream seeded by Plan.Seed and consumed in event
// order, so a (workload, config, Plan) triple replays exactly.
package fault

import (
	"fmt"

	"misar/internal/sim"
)

// Plan configures the injector. It is a pointer-free value struct — it is
// embedded in machine.Config, which the harness fingerprints with
// fmt.Sprintf("%+v", cfg) for memoization — and its zero value means "no
// faults". Rates are probabilities in 1/65536 units (65536 = always);
// delay maxima are in cycles.
type Plan struct {
	Seed uint64

	SteerRate uint32 // forced OMU steer on an otherwise-allocatable acquire
	CapRate   uint32 // artificial capacity reduction: refuse a free entry
	EvictRate uint32 // spurious un-steer: evict/revoke standby entries

	AckRate  uint32 // delay an MSA acknowledgment (slice -> core response)
	AckMax   uint32 // max extra cycles per delayed ack
	NoCRate  uint32 // jitter a NoC message's route start
	NoCMax   uint32 // max extra cycles per jittered message
	CohRate  uint32 // delay a coherence directory reply
	CohMax   uint32 // max extra cycles per delayed reply

	// TMAbortRate forces spurious TM aborts: a commit phase that acquired
	// its locks and would have committed aborts anyway (internal/tm rolls
	// this once per lock-holding commit attempt). Exercises the abort-release
	// path — the tm-commit model's abort-release rule — under load.
	TMAbortRate uint32
}

// Enabled reports whether any fault site can fire. A Plan carrying only a
// Seed is still disabled: machine.New skips injector construction entirely
// and every hook stays nil.
func (p Plan) Enabled() bool {
	return p.SteerRate > 0 || p.CapRate > 0 || p.EvictRate > 0 ||
		p.AckRate > 0 || p.NoCRate > 0 || p.CohRate > 0 || p.TMAbortRate > 0
}

// Sites returns the names of the enabled fault sites, in a fixed order.
// Used by the chaos shrinker and for report labeling.
func (p Plan) Sites() []string {
	var s []string
	if p.SteerRate > 0 {
		s = append(s, "steer")
	}
	if p.CapRate > 0 {
		s = append(s, "cap")
	}
	if p.EvictRate > 0 {
		s = append(s, "evict")
	}
	if p.AckRate > 0 {
		s = append(s, "ack")
	}
	if p.NoCRate > 0 {
		s = append(s, "noc")
	}
	if p.CohRate > 0 {
		s = append(s, "coh")
	}
	if p.TMAbortRate > 0 {
		s = append(s, "tmabort")
	}
	return s
}

// Without returns a copy of the plan with the named site disabled. Unknown
// names return the plan unchanged.
func (p Plan) Without(site string) Plan {
	switch site {
	case "steer":
		p.SteerRate = 0
	case "cap":
		p.CapRate = 0
	case "evict":
		p.EvictRate = 0
	case "ack":
		p.AckRate, p.AckMax = 0, 0
	case "noc":
		p.NoCRate, p.NoCMax = 0, 0
	case "coh":
		p.CohRate, p.CohMax = 0, 0
	case "tmabort":
		p.TMAbortRate = 0
	}
	return p
}

// DefaultPlan is the standard chaos-campaign plan: every site enabled at a
// moderate rate with short delays, seeded by seed.
func DefaultPlan(seed uint64) Plan {
	return Plan{
		Seed:      seed,
		SteerRate: 2048,  // ~3% of allocatable acquires steered
		CapRate:   2048,  // ~3% of free-entry allocations refused
		EvictRate: 1024,  // ~1.5% of MSA requests trigger a reclaim sweep
		AckRate:   4096,  // ~6% of acks delayed
		AckMax:    200,
		NoCRate:   4096,  // ~6% of messages jittered
		NoCMax:    64,
		CohRate:   4096,  // ~6% of directory replies delayed
		CohMax:    100,
		// ~12% of lock-holding TM commit attempts spuriously aborted. The
		// site only fires on runs using the TM backend (internal/tm); lock
		// and MSA campaigns never poll it, so their outcomes are unchanged.
		TMAbortRate: 8192,
	}
}

// Counts is the per-site tally of what the injector actually did.
type Counts struct {
	Steers, CapSteals, Evicts   uint64
	AckDelays, Jitters, CohDelays uint64
	TMAborts                    uint64
	DelayCycles                 uint64 // total extra cycles across all delay sites
}

// Total returns the number of discrete faults injected.
func (c Counts) Total() uint64 {
	return c.Steers + c.CapSteals + c.Evicts + c.AckDelays + c.Jitters + c.CohDelays + c.TMAborts
}

func (c Counts) String() string {
	return fmt.Sprintf("steers=%d cap=%d evicts=%d ackDelays=%d jitters=%d cohDelays=%d tmAborts=%d (+%d cycles)",
		c.Steers, c.CapSteals, c.Evicts, c.AckDelays, c.Jitters, c.CohDelays, c.TMAborts, c.DelayCycles)
}

// Injector makes the fault decisions. All methods are nil-receiver-safe: a
// nil *Injector never fires, so hook sites cost one comparison. A non-nil
// Injector is only ever used from the (single-threaded) simulation event
// loop; it is not safe for concurrent use.
type Injector struct {
	plan   Plan
	rng    uint64
	counts Counts
}

// New builds an injector for the plan. Returns a ready injector even for a
// disabled plan (all sites then never fire); callers normally gate on
// plan.Enabled() and keep the hook nil instead.
func New(p Plan) *Injector {
	// splitmix64 recommends a non-zero odd-ish stream start; mixing the seed
	// once decorrelates small consecutive seeds.
	return &Injector{plan: p, rng: mix64(p.Seed ^ 0x9E3779B97F4A7C15)}
}

// Plan returns the plan the injector was built with (zero Plan when nil).
func (i *Injector) Plan() Plan {
	if i == nil {
		return Plan{}
	}
	return i.plan
}

// Counts returns the tally of injected faults so far (zero when nil).
func (i *Injector) Counts() Counts {
	if i == nil {
		return Counts{}
	}
	return i.counts
}

// mix64 is the splitmix64 output function.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// next advances the splitmix64 stream.
func (i *Injector) next() uint64 {
	i.rng += 0x9E3779B97F4A7C15
	return mix64(i.rng)
}

// roll consumes one random number iff rate > 0 and reports whether the site
// fires. Zero-rate sites consume nothing, so disabling one site does not
// shift the stream seen by the others — the shrinker depends on this being
// at least approximately stable.
func (i *Injector) roll(rate uint32) bool {
	if rate == 0 {
		return false
	}
	return uint32(i.next()&0xFFFF) < rate
}

// delay consumes one or two random numbers and returns 0 (no fault) or an
// extra delay in [1, max].
func (i *Injector) delay(rate, max uint32) sim.Time {
	if !i.roll(rate) || max == 0 {
		return 0
	}
	d := sim.Time(1 + i.next()%uint64(max))
	i.counts.DelayCycles += uint64(d)
	return d
}

// ForceSteer reports whether an otherwise-allocatable acquire should be
// steered to software as if the OMU had vetoed it.
func (i *Injector) ForceSteer() bool {
	if i == nil || !i.roll(i.plan.SteerRate) {
		return false
	}
	i.counts.Steers++
	return true
}

// ForceCapacitySteer reports whether an allocation that found a free entry
// should be refused anyway, emulating a smaller MSA slice than configured.
func (i *Injector) ForceCapacitySteer() bool {
	if i == nil || !i.roll(i.plan.CapRate) {
		return false
	}
	i.counts.CapSteals++
	return true
}

// ForceEvict reports whether the slice should run a standby-reclaim sweep
// right now (a spurious un-steer: silent-acquire privileges are revoked and
// standby entries are evicted even with no capacity pressure).
func (i *Injector) ForceEvict() bool {
	if i == nil || !i.roll(i.plan.EvictRate) {
		return false
	}
	i.counts.Evicts++
	return true
}

// AckDelay returns the extra cycles to hold back one MSA acknowledgment
// (slice-to-core response), or 0.
func (i *Injector) AckDelay() sim.Time {
	if i == nil {
		return 0
	}
	d := i.delay(i.plan.AckRate, i.plan.AckMax)
	if d > 0 {
		i.counts.AckDelays++
	}
	return d
}

// MsgDelay returns the extra cycles to delay one NoC message's route start,
// or 0. The network clamps route starts so per-(src,dst) FIFO order is
// preserved; jitter reorders messages between pairs, never within one.
func (i *Injector) MsgDelay(src, dst int) sim.Time {
	if i == nil {
		return 0
	}
	d := i.delay(i.plan.NoCRate, i.plan.NoCMax)
	if d > 0 {
		i.counts.Jitters++
	}
	return d
}

// ForceTMAbort reports whether a TM commit phase that acquired its locks
// should abort anyway (spurious abort). internal/tm rolls this once per
// lock-holding commit attempt, from thread code that runs while the serial
// kernel is parked — the same single-threaded discipline as the event-loop
// sites (sharded machines reject fault plans outright, see
// machine.Validate).
func (i *Injector) ForceTMAbort() bool {
	if i == nil || !i.roll(i.plan.TMAbortRate) {
		return false
	}
	i.counts.TMAborts++
	return true
}

// CohDelay returns the extra cycles to add to one coherence directory
// reply, or 0.
func (i *Injector) CohDelay() sim.Time {
	if i == nil {
		return 0
	}
	d := i.delay(i.plan.CohRate, i.plan.CohMax)
	if d > 0 {
		i.counts.CohDelays++
	}
	return d
}
