// Command misar-fig regenerates the tables and figures of the MiSAR paper
// (ISCA 2015, §6) plus the repository's ablations, printing each as an
// aligned text table.
//
// Usage:
//
//	misar-fig -fig 6                 # Figure 6 at the paper's 16/64 cores
//	misar-fig -fig 5 -tiles 8,16     # Figure 5 at reduced scale
//	misar-fig -fig all -quick        # everything, small scale
//	misar-fig -fig headline          # the abstract's three claims
//	misar-fig -fig all -parallel 8   # 8 simulations in flight
//	misar-fig -fig 6 -store cache/   # persist results; reruns are instant
//	misar-fig -fig 6 -shards 4       # sharded conservative kernel
//	misar-fig -fig scale -tiles 256,1024  # wall-clock scaling sweep
//
// Figures: table1, 5, 6, 7, 8, 9, headline, omu-sweep, entry-sweep,
// fairness, suspend, sync-overhead, scale, all.
//
// -shards N runs every compatible simulation on the sharded conservative
// kernel (incompatible configurations fall back to the serial kernel). The
// tables are byte-identical to the serial ones; only wall time changes —
// see DESIGN.md §14.
//
// -report dir/ meters every simulation and writes one JSON metrics report
// per unique run into dir/ (deterministic filenames; see internal/metrics).
//
// Simulations run through one shared harness.Runner: -parallel N keeps up
// to N in flight, and each unique (app, config, tiles, library)
// combination is simulated exactly once per invocation even when several
// figures need it (the pthread baseline is shared by Fig6, Fig8, Fig9 and
// Headline). Output is byte-identical for every -parallel value.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"misar/internal/harness"
	"misar/internal/prof"
	"misar/internal/stats"
	"misar/internal/store"
)

func main() {
	fig := flag.String("fig", "headline", "artifact to regenerate (table1, 5-9, headline, omu-sweep, entry-sweep, fairness, suspend, scale, all)")
	tiles := flag.String("tiles", "16,64", "comma-separated core counts")
	shards := flag.Int("shards", 0, "run compatible simulations on the sharded kernel with N shards (0 = serial)")
	apps := flag.String("apps", "", "comma-separated app subset (default: full suite)")
	quick := flag.Bool("quick", false, "use the reduced test-scale options")
	parallel := flag.Int("parallel", runtime.NumCPU(), "max simulations in flight (1 = serial)")
	progress := flag.Bool("progress", false, "print one line per completed simulation to stderr")
	report := flag.String("report", "", "directory for per-run JSON metrics reports (enables metering)")
	storeDir := flag.String("store", "", "persistent result store directory; warm results skip simulation entirely")
	flag.Parse()
	defer prof.Start()()

	o := harness.DefaultOptions()
	if *quick {
		o = harness.QuickOptions()
	} else {
		o.Tiles = nil
		for _, t := range strings.Split(*tiles, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(t))
			if err != nil || n < 1 || n > 1024 {
				fmt.Fprintf(os.Stderr, "misar-fig: bad tile count %q\n", t)
				os.Exit(2)
			}
			o.Tiles = append(o.Tiles, n)
		}
		if *apps != "" {
			o.Apps = strings.Split(*apps, ",")
		}
	}

	r := harness.NewRunner(*parallel)
	if *shards > 0 {
		r.SetConfigTransform(harness.ShardTransform(*shards))
	}
	if *report != "" {
		r.EnableMetrics()
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "misar-fig:", err)
			os.Exit(1)
		}
		r.SetStore(st)
	}
	if *progress {
		r.SetProgress(func(ev harness.ProgressEvent) {
			status := ""
			if ev.Err != nil {
				status = "  FAILED: " + ev.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-45s %10v%s\n",
				ev.Done, ev.Unique, ev.Label, ev.Elapsed.Round(time.Millisecond), status)
		})
	}

	runners := map[string]func(*harness.Runner, harness.Options) (*stats.Table, error){
		"table1": func(*harness.Runner, harness.Options) (*stats.Table, error) {
			return harness.Table1(), nil
		},
		"5":           (*harness.Runner).Fig5,
		"6":           (*harness.Runner).Fig6,
		"7":           (*harness.Runner).Fig7,
		"8":           (*harness.Runner).Fig8,
		"9":           (*harness.Runner).Fig9,
		"headline":    (*harness.Runner).Headline,
		"omu-sweep":   (*harness.Runner).OMUSweep,
		"bloom-sweep": (*harness.Runner).BloomSweep,
		"entry-sweep": (*harness.Runner).EntrySweep,
		"fairness": func(_ *harness.Runner, o harness.Options) (*stats.Table, error) {
			return harness.Fairness(o)
		},
		"suspend": func(_ *harness.Runner, o harness.Options) (*stats.Table, error) {
			return harness.SuspendStress(o)
		},
		"sync-overhead": (*harness.Runner).SyncOverhead,
		"scale": func(_ *harness.Runner, o harness.Options) (*stats.Table, error) {
			return harness.ScaleSweep(o)
		},
		"tm": (*harness.Runner).TMSweep,
	}
	order := []string{"table1", "5", "6", "7", "8", "9", "headline",
		"omu-sweep", "bloom-sweep", "entry-sweep", "fairness", "suspend",
		"sync-overhead", "scale", "tm"}

	var selected []string
	if *fig == "all" {
		selected = order
	} else {
		if _, ok := runners[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "misar-fig: unknown figure %q (want one of %s, all)\n",
				*fig, strings.Join(order, ", "))
			os.Exit(2)
		}
		selected = []string{*fig}
	}

	total := time.Now()
	for _, name := range selected {
		start := time.Now()
		t, err := runners[name](r, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "misar-fig: %s: %v\n", name, err)
			os.Exit(1)
		}
		t.Render(os.Stdout)
		fmt.Printf("(%s regenerated in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *report != "" {
		reps := r.Reports()
		for _, rep := range reps {
			if err := rep.WriteJSONFile(filepath.Join(*report, rep.Filename())); err != nil {
				fmt.Fprintf(os.Stderr, "misar-fig: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("(%d metrics reports written to %s)\n", len(reps), *report)
	}
	st := r.Stats()
	if st.Submitted > 0 {
		fmt.Printf("(%d submissions -> %d unique, %d simulated, %d from store, %d memoized; %d workers, total %v)\n",
			st.Submitted, st.Unique, st.Executed, st.StoreHits, st.Submitted-st.Unique,
			r.Workers(), time.Since(total).Round(time.Millisecond))
	}
}
