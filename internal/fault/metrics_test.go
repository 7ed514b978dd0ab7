package fault_test

import (
	"testing"

	"misar/internal/cpu"
	"misar/internal/fault"
	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/syncrt"
)

// TestInjectorMetrics: on a metered machine with a fault plan, every fault.*
// counter in the run's registry equals the injector's own tally for that
// site. Two runs cover all eight sites: MSA locks fire the hardware and
// network sites, TM critical sections fire the spurious-abort site.
func TestInjectorMetrics(t *testing.T) {
	const tiles, locks, iters = 8, 64, 30
	hw := machine.MSAOMU(tiles, 2)
	tm := machine.Default(tiles)
	tm.Name = "tm"
	tm.CPU.Mode = cpu.ModeAlwaysFail
	// Every site at 25% with short delays, so each fires within the run.
	plan := fault.Plan{Seed: 7, SteerRate: 16384, CapRate: 16384, EvictRate: 16384,
		AckRate: 16384, AckMax: 50, NoCRate: 16384, NoCMax: 20,
		CohRate: 16384, CohMax: 50, TMAbortRate: 16384}
	var fired fault.Counts
	for _, run := range []struct {
		cfg machine.Config
		lib *syncrt.Lib
	}{{hw, syncrt.HWLib()}, {tm, syncrt.TMLib()}} {
		cfg := run.cfg
		cfg.Metrics = true
		cfg.Fault = plan
		m := machine.New(cfg)
		arena := syncrt.NewArena(0x100000)
		mus := arena.MutexArray(locks)
		counters := arena.DataArray(locks)
		qnodes := make([]memory.Addr, tiles)
		for i := range qnodes {
			qnodes[i] = arena.QNode()
		}
		m.SpawnAll(tiles, func(tid int, e cpu.Env) {
			rt := run.lib.Bind(e, qnodes[tid])
			for k := 0; k < iters; k++ {
				l := (tid*7 + k*5) % locks
				rt.Critical(mus[l], func() {
					rt.Store(counters[l], rt.Load(counters[l])+1)
				})
				e.Compute(uint64(20 + (tid*13+k*11)%40))
			}
		})
		if _, err := m.Run(50_000_000); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		c := m.Injector.Counts()
		for name, want := range map[string]uint64{
			"fault.forced_steers":   c.Steers,
			"fault.capacity_steals": c.CapSteals,
			"fault.forced_evicts":   c.Evicts,
			"fault.ack_delays":      c.AckDelays,
			"fault.noc_jitters":     c.Jitters,
			"fault.coh_delays":      c.CohDelays,
			"fault.tm_aborts":       c.TMAborts,
			"fault.delay_cycles":    c.DelayCycles,
		} {
			if got := m.Metrics.Counter(name).Value(); got != want {
				t.Errorf("%s: %s = %d, injector counted %d", cfg.Name, name, got, want)
			}
		}
		fired.Steers += c.Steers
		fired.CapSteals += c.CapSteals
		fired.Evicts += c.Evicts
		fired.AckDelays += c.AckDelays
		fired.Jitters += c.Jitters
		fired.CohDelays += c.CohDelays
		fired.TMAborts += c.TMAborts
	}
	if fired.Steers == 0 || fired.CapSteals == 0 || fired.Evicts == 0 || fired.AckDelays == 0 ||
		fired.Jitters == 0 || fired.CohDelays == 0 || fired.TMAborts == 0 {
		t.Errorf("some fault site never fired, so its counter went unchecked: %s", fired)
	}
}
