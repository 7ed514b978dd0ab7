// Command misar-sim runs one benchmark on one machine configuration and
// prints detailed statistics: cycles, speedup versus the software baseline,
// MSA/OMU activity, coverage, and network/cache counters.
//
// Usage:
//
//	misar-sim -app streamcluster -tiles 64 -config msaomu2
//	misar-sim -app fluidanimate -tiles 16 -config msaomu2-noopt -v
//	misar-sim -app streamcluster -tiles 64 -remote localhost:8091
//	misar-sim -list
//
// Configs: pthread, spinlock, mcs-tour, msa0, msaomu1, msaomu2, msaomu4,
// msaomu2-noomu, msaomu2-noopt, msaomu2-lockonly, msaomu2-barrieronly,
// msainf, ideal, tm (software transactional memory, internal/tm).
//
// With -remote the simulation is submitted to a misar-served instance
// instead of running in-process: identical requests are deduplicated
// server-side and warm results come back instantly from its persistent
// store.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"misar/internal/cpu"
	"misar/internal/fault"
	"misar/internal/harness"
	"misar/internal/machine"
	"misar/internal/obs"
	"misar/internal/prof"
	"misar/internal/service"
	"misar/internal/service/client"
	"misar/internal/syncrt"
	"misar/internal/trace"
	"misar/internal/workload"
)

func main() {
	appName := flag.String("app", "streamcluster", "benchmark name (-list to enumerate)")
	tiles := flag.Int("tiles", 16, "core count (<= 1024)")
	config := flag.String("config", "msaomu2", "machine configuration")
	configFile := flag.String("config-file", "", "load the machine configuration from a JSON file (overrides -config/-tiles)")
	saveConfig := flag.String("save-config", "", "write the resolved machine configuration to a JSON file and exit")
	list := flag.Bool("list", false, "list benchmarks and exit")
	verbose := flag.Bool("v", false, "print per-component statistics")
	report := flag.String("report", "", "write a JSON metrics report to this file (enables metering)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev)")
	faultSeed := flag.Uint64("fault-seed", 0, "enable the fault injector with the default plan for this seed")
	invariants := flag.Bool("invariants", false, "arm the runtime safety-invariant checker")
	remote := flag.String("remote", "", "submit to a misar-served instance at this address instead of simulating locally")
	flag.Parse()
	defer prof.Start()()

	if *list {
		for _, a := range workload.Suite() {
			marker := " "
			if a.SyncSensitive {
				marker = "*"
			}
			fmt.Printf("%s %s\n", marker, a.Name)
		}
		fmt.Println("(* = synchronization sensitive, shown individually in Fig. 6)")
		return
	}

	if *remote != "" {
		for name, set := range map[string]bool{
			"-config-file": *configFile != "",
			"-save-config": *saveConfig != "",
			"-v":           *verbose,
		} {
			if set {
				fmt.Fprintf(os.Stderr, "misar-sim: %s is local-only and cannot be combined with -remote\n", name)
				os.Exit(2)
			}
		}
		os.Exit(runRemote(*remote, *appName, *config, *tiles, *faultSeed, *invariants, *report, *traceOut))
	}

	app, ok := workload.ByName(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "misar-sim: unknown app %q (-list to enumerate)\n", *appName)
		os.Exit(2)
	}
	cfg, libf, err := harness.Variant(*config, *tiles)
	if err != nil {
		fmt.Fprintf(os.Stderr, "misar-sim: %v\n", err)
		os.Exit(2)
	}
	if *configFile != "" {
		cfg, err = machine.LoadConfig(*configFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "misar-sim:", err)
			os.Exit(2)
		}
	}
	if *saveConfig != "" {
		if err := machine.SaveConfig(*saveConfig, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "misar-sim:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *saveConfig)
		return
	}

	// Baseline for the speedup denominator.
	baseCfg, baseLib, err := harness.Variant("pthread", cfg.Tiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "misar-sim: baseline:", err)
		os.Exit(1)
	}
	_, baseCycles, err := workload.Run(app, baseCfg, baseLib())
	if err != nil {
		fmt.Fprintln(os.Stderr, "misar-sim: baseline:", err)
		os.Exit(1)
	}

	if *report != "" {
		cfg.Metrics = true
	}
	if *faultSeed != 0 {
		// Fault campaigns always arm the checker: injected faults are only
		// useful if something is watching the invariants they stress.
		cfg.Fault = fault.DefaultPlan(*faultSeed)
		cfg.Invariants = true
	}
	if *invariants {
		cfg.Invariants = true
	}
	lib := libf()

	start := time.Now()
	m := machine.New(cfg)
	if *traceOut != "" {
		m.ResizeFlight(1_000_000, nil)
	}
	arena := syncrt.NewArena(0x1000000)
	m.SpawnAll(cfg.Tiles, app.Build(arena, cfg.Tiles, lib))
	cycles, err := m.Run(workload.RunDeadline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "misar-sim:", err)
		os.Exit(1)
	}
	wall := time.Since(start)

	fmt.Printf("app            %s\n", app.Name)
	fmt.Printf("machine        %s\n", m.Cfg.Name)
	fmt.Printf("cycles         %d\n", cycles)
	fmt.Printf("speedup        %.2fx vs pthread (%d cycles)\n",
		float64(baseCycles)/float64(cycles), baseCycles)
	fmt.Printf("sync ops       %d issued by cores\n", m.SyncOps())
	fmt.Printf("coverage       %.1f%% handled in hardware\n", m.Coverage()*100)
	s := m.MSAStats()
	fmt.Printf("msa            lockHW=%d lockSW=%d barrierHW=%d barrierSW=%d condHW=%d condSW=%d silent=%d\n",
		s.LockHW, s.LockSW, s.BarrierHW, s.BarrierSW, s.CondHW, s.CondSW, s.SilentLocks)
	fmt.Printf("entries        allocs=%d deallocs=%d reclaims=%d grants=%d revokes=%d aborts=%d\n",
		s.Allocs, s.Deallocs, s.Reclaims, s.Grants, s.Revokes, s.Aborts)
	fmt.Printf("omu            steers=%d capacitySteers=%d\n", s.OMUSteers, s.CapacitySteers)
	if m.Injector != nil {
		fmt.Printf("faults         %s\n", m.Injector.Counts().String())
	}
	if cfg.Invariants {
		fmt.Printf("invariants     %d violation(s)\n", len(m.Checker.Violations()))
	}
	for _, lk := range []struct {
		name string
		kind cpu.LatencyKind
	}{
		{"lock", cpu.LatLock}, {"unlock", cpu.LatUnlock},
		{"barrier", cpu.LatBarrier}, {"cond", cpu.LatCond},
	} {
		h := m.Latency(lk.kind)
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("lat %-10s n=%-7d mean=%-8.1f p50<=%-8d p95<=%-8d max=%d\n",
			lk.name, h.Count(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Max())
	}
	ns := m.Net.Stats()
	fmt.Printf("noc            msgs=%d flits=%d avgLat=%.1f maxLat=%d\n",
		ns.Messages, ns.Flits, ns.AvgLatency(), ns.MaxLatency)
	fmt.Printf("wall           %v (%.0f sim cycles/s)\n",
		wall.Round(time.Millisecond), float64(cycles)/wall.Seconds())

	if *report != "" {
		rep := m.MetricsReport("app", app.Name, lib.Desc())
		if err := rep.WriteJSONFile(*report); err != nil {
			fmt.Fprintln(os.Stderr, "misar-sim:", err)
			os.Exit(1)
		}
		fmt.Printf("report         wrote %s (%d counters)\n", *report, len(rep.Metrics.Counters))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "misar-sim:", err)
			os.Exit(1)
		}
		dump := m.FlightDump()
		if err := obs.WriteChrome(f, dump.Events); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "misar-sim:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "misar-sim:", err)
			os.Exit(1)
		}
		fmt.Printf("trace          wrote %s (%d events, %d dropped)\n",
			*traceOut, len(dump.Events), dump.Total-uint64(len(dump.Events)))
	}

	if *verbose {
		fmt.Println("\nper-tile:")
		for i := range m.Cores {
			cs := m.Cores[i].Stats()
			ls := m.L1s[i].Stats()
			ds := m.Dirs[i].Stats()
			os := m.Slices[i].OMUStats()
			fmt.Printf("  tile %2d: syncStall=%-8d silent=%-5d l1hit=%d/%d dirReqs=%d omuIncs=%d\n",
				i, cs.SyncStallCycles, cs.SilentLocks,
				ls.Hits, ls.Hits+ls.Misses, ds.GetS+ds.GetX, os.Incs)
		}
	}
}

// runRemote submits the experiment (and its pthread baseline, for the
// speedup line) to a misar-served instance and prints the result. Returns
// the process exit code.
//
// The client mints the end-to-end trace ID: the server adopts it, so with
// -trace-out the client-side submit span and every server-side span (queue
// wait, store lookup, sim phases) land in ONE Chrome trace file.
func runRemote(addr, appName, config string, tiles int, faultSeed uint64, invariants bool, report, traceOut string) int {
	c := client.New(addr)
	traceID := obs.NewTraceID()
	spans := obs.NewRecorder(0)
	ctx := obs.WithRecorder(obs.WithTrace(context.Background(), traceID), spans)

	req := service.JobRequest{
		App:        appName,
		Config:     config,
		Tiles:      tiles,
		FaultSeed:  faultSeed,
		Invariants: invariants,
		Metrics:    report != "",
	}

	start := time.Now()
	onEvent := func(ev service.JobEvent) {
		switch ev.Event {
		case "accepted":
			fmt.Printf("remote         %s accepted %s (%s)\n", addr, ev.Job, ev.Label)
		case "running":
			fmt.Printf("remote         %s running, %.1fs elapsed\n", ev.Job, float64(ev.ElapsedMS)/1000)
		}
	}

	// The baseline job rides along so speedup is computable; the server
	// deduplicates it against any prior identical request, so a warm
	// baseline costs one store read.
	type outcome struct {
		ev  *service.JobEvent
		err error
	}
	basec := make(chan outcome, 1)
	if config == "pthread" {
		basec <- outcome{}
	} else {
		baseReq := service.JobRequest{App: appName, Config: "pthread", Tiles: tiles}
		go func() {
			ev, err := c.Submit(ctx, baseReq, nil)
			basec <- outcome{ev, err}
		}()
	}

	final, err := c.Submit(ctx, req, onEvent)
	if err != nil {
		fmt.Fprintln(os.Stderr, "misar-sim: remote:", err)
		return 1
	}
	base := <-basec
	wall := time.Since(start)

	res := final.Result
	fmt.Printf("app            %s\n", appName)
	fmt.Printf("machine        %s\n", strings.TrimPrefix(final.Label, appName+" on "))
	fmt.Printf("cycles         %d\n", res.Cycles)
	if base.err != nil {
		fmt.Fprintln(os.Stderr, "misar-sim: remote baseline:", base.err)
	} else if base.ev != nil && base.ev.Result != nil && res.Cycles > 0 {
		fmt.Printf("speedup        %.2fx vs pthread (%d cycles)\n",
			float64(base.ev.Result.Cycles)/float64(res.Cycles), base.ev.Result.Cycles)
	}
	fmt.Printf("coverage       %.1f%% handled in hardware\n", res.Coverage*100)
	source := "simulated by server"
	if final.FromStore {
		source = "replayed from server store"
	}
	fmt.Printf("source         %s (job %.1fs, round-trip %v)\n",
		source, float64(final.ElapsedMS)/1000, wall.Round(time.Millisecond))
	if final.Trace != "" {
		fmt.Printf("trace id       %s\n", final.Trace)
	}

	if traceOut != "" {
		merged := append([]trace.Span{}, final.Spans...)
		merged = append(merged, spans.SpansFor(traceID)...)
		if len(merged) == 0 {
			fmt.Fprintln(os.Stderr, "misar-sim: remote returned no spans for the trace file")
			return 1
		}
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "misar-sim:", err)
			return 1
		}
		if err := trace.WriteChromeSpans(f, merged); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "misar-sim:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "misar-sim:", err)
			return 1
		}
		fmt.Printf("trace          wrote %s (%d spans, open in ui.perfetto.dev)\n", traceOut, len(merged))
	}

	if report != "" {
		if res.Report == nil {
			fmt.Fprintln(os.Stderr, "misar-sim: remote result carries no metrics report")
			return 1
		}
		if err := res.Report.WriteJSONFile(report); err != nil {
			fmt.Fprintln(os.Stderr, "misar-sim:", err)
			return 1
		}
		fmt.Printf("report         wrote %s (%d counters)\n", report, len(res.Report.Metrics.Counters))
	}
	return 0
}
