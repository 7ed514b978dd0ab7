// Command perfbench is the repository's benchmark: four named workloads,
// each printing its end-to-end metrics, and a traced mode that prints the
// per-layer metrics and writes a Chrome/Perfetto trace. It measures the
// simulator from outside, through the public functions and Stats()
// accessors of misar/internal/..., and changes no code outside this module.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload figs16 --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seconds 30   # every workload, one process
//	bash perfbench/run.sh compare OLD.json NEW.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Everything above it is the
// human-readable report: host provenance, the workload's rationale, its
// output_digest, and every metric with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// session is one workload prepared for one seed.
type session interface {
	// setup times the work done before the first simulated event or
	// request, once.
	setup() (time.Duration, error)
	// rep runs the workload's work once; tr is nil when untraced.
	rep(tr *tracer) repResult
	// metrics returns the workload's own end-to-end metrics over the
	// untraced repetitions so far, with notes on how they were taken.
	metrics() (map[string]metric, []string)
}

// repResult is one repetition's outcome.
type repResult struct {
	wall              time.Duration // the workload's work, excluding set-up
	digest            string        // output_digest of every simulated result
	attempted, failed int           // simulations or requests, and failures
	errs              []error
}

// workloadDef names a workload and records why it is in the benchmark.
type workloadDef struct {
	name     string
	why      string // one line; also BENCHMARK.json's "why"
	stresses string // the layers it is meant to load
	bypasses string // the layers it is meant to leave idle
	seeded   bool   // false: a fixed suite, the seed is ignored
	open     func(seed uint64, out string) session
}

// endToEnd names the end-to-end metrics every workload reports in its
// result line. Workload-specific ones (shard_speedup, job latencies, the
// simulated model outputs) are printed and written to the result file.
var endToEnd = []string{"setup_s", "wall_s", "peak_rss_mb"}

var workloads = []workloadDef{
	{
		name:     "figs16",
		why:      "the paper's 16-tile evaluation (Fig5-9 + Headline, 24 apps) through one shared Runner: what a user regenerating the figures waits on",
		stresses: "thread switches and the event heap on a 4x4 mesh; the MSA/OMU and the runner's memo cache do real work",
		bypasses: "long NoC routes, the sharded kernel, the result store and HTTP",
		open: func(uint64, string) session {
			return &figSession{figs: paperFigures, tiles: 16, check: checkHeadline}
		},
	},
	{
		name:     "contention64",
		why:      "the three-way pthread/MSA/TM contention sweep at 64 tiles: contended CAS, invalidation storms at 64 sharers, and the only heavy TM load",
		stresses: "coherence (CAS/write traffic, invalidations at 64 sharers) and the tm layer (lock words, version clock, aborts)",
		bypasses: "the result store, HTTP and the sharded kernel",
		open: func(uint64, string) session {
			return &figSession{figs: contentionFigures, tiles: 64, check: checkTM}
		},
	},
	{
		name:     "scale1024",
		why:      "a seed-drawn barrier-phase program on 1024 tiles, serial (k1) then on two shards (k2): long NoC routes and the sharded kernel",
		stresses: "NoC hops (about 21 per route), multi-word directory sharer sets, sim.ShardGroup",
		bypasses: "the MSA (software MCS-tree barrier) and thread switches: an MSA or switch optimisation should not move it",
		seeded:   true,
		open: func(seed uint64, _ string) session {
			return &scaleSession{prog: newScaleProgram(seed)}
		},
	},
	{
		name:     "serve",
		why:      "a loopback job server with two closed-loop clients over a seed-drawn job stream, cold then store-warm: the only repeated inputs",
		stresses: "store, fingerprint, HTTP and NDJSON on warm jobs; the runner queue on cold jobs",
		bypasses: "the 64- and 1024-tile regimes and the sharded kernel",
		seeded:   true,
		open: func(seed uint64, out string) session {
			return &serveSession{stream: newServeStream(seed), dir: filepath.Join(out, fmt.Sprintf("serve-store-%d", os.Getpid()))}
		},
	},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: figs16, contention64, scale1024, serve, or all of them in turn")
	seed := fs.Uint64("seed", 1, "input seed (scale1024 and serve)")
	secs := fs.Float64("seconds", 30, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	root := fs.String("root", ".", "repository root, for provenance")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for result files, traces and stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var chosen []*workloadDef
	for i := range workloads {
		if *name == "all" || workloads[i].name == *name {
			chosen = append(chosen, &workloads[i])
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want figs16, contention64, scale1024, serve or all)\n", *name)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	h := probeHost(*root)
	fmt.Fprintf(stdout, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.Source)

	// The result line carries the gated metrics: the end-to-end ones every
	// workload reports, or every per-layer metric on a traced run. With
	// "all", names are prefixed by the workload.
	summary := resultLine{Correct: true, Metrics: map[string]metric{}}
	if len(chosen) > 1 {
		fmt.Fprintln(stdout, "note: one process runs every workload, so each peak_rss_mb is the process peak so far")
	}
	for _, w := range chosen {
		res, err := runWorkload(w, *seed, *out, time.Duration(*secs*float64(time.Second)), *traced == 1, h, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		summary.Correct = summary.Correct && res.Correct
		summary.Attempted += res.Attempt
		summary.Failed += res.Failed
		gated := res.Layers
		if *traced != 1 {
			gated = map[string]metric{}
			for _, n := range endToEnd {
				gated[n] = res.Metrics[n]
			}
		}
		for n, m := range gated {
			if len(chosen) > 1 {
				n = w.name + "." + n
			}
			summary.Metrics[n] = m
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload measures one workload, prints its report and writes its
// result file.
func runWorkload(w *workloadDef, seed uint64, out string, budget time.Duration, traced bool, h host, stdout io.Writer) (*resultFile, error) {
	fmt.Fprintf(stdout, "== perfbench %s seed=%d seconds=%g trace=%v\n", w.name, seed, budget.Seconds(), traced)
	fmt.Fprintf(stdout, "why: %s\nstresses: %s\nbypasses: %s\n", w.why, w.stresses, w.bypasses)
	if !w.seeded {
		fmt.Fprintln(stdout, "inputs: the paper's fixed suite; the seed is ignored")
	}
	res, err := measure(w, seed, out, budget, traced, stdout)
	if err != nil {
		return nil, err
	}
	res.Host = h
	t := 0
	if traced {
		t = 1
	}
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, t))
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "result file: %s\n", path)
	return res, nil
}

// setupSamples is how many set-up samples are taken; the median is
// reported. Each sample repeats the set-up for at least setupSampleMin and
// takes the median of those set-ups, so that a sub-millisecond set-up is
// not timed once and a stray pause does not skew a sample.
const (
	setupSamples   = 7
	setupSampleMin = 50 * time.Millisecond
)

// setupSample returns one sample in seconds.
func setupSample(s session) (float64, error) {
	runtime.GC()
	var total time.Duration
	var ds []time.Duration
	for total < setupSampleMin {
		d, err := s.setup()
		if err != nil {
			return 0, err
		}
		total += d
		ds = append(ds, d)
	}
	return median(seconds(ds)), nil
}

// measure runs the workload's set-up samples, then repetitions until the
// budget is spent (at least one). A traced run spends half the budget on
// untraced repetitions and then runs the probes and one traced repetition.
func measure(w *workloadDef, seed uint64, out string, budget time.Duration, traced bool, stdout io.Writer) (*resultFile, error) {
	s := w.open(seed, out)
	// Every sample and repetition starts from a collected heap, so garbage
	// left by the previous one is not charged to it.
	setups := make([]float64, setupSamples)
	for i := range setups {
		d, err := setupSample(s)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[i] = d
	}
	res := &resultFile{Schema: resultSchema, Workload: w.name, Seed: seed, Seconds: budget.Seconds(), Trace: traced}
	var walls, took []float64
	var digests []string
	var errs []error
	record := func(r repResult) {
		digests = append(digests, r.digest)
		res.Attempt += r.attempted
		res.Failed += r.failed
		errs = append(errs, r.errs...)
	}
	untraced := budget
	if traced {
		untraced = budget / 2
	}
	start := time.Now()
	for {
		runtime.GC()
		t0 := time.Now()
		r := s.rep(nil)
		took = append(took, time.Since(t0).Seconds())
		walls = append(walls, r.wall.Seconds())
		record(r)
		if time.Since(start).Seconds()+median(took) > untraced.Seconds() {
			break
		}
	}
	res.Reps = len(walls)

	res.Metrics = map[string]metric{
		"setup_s":     {median(setups), "s"},
		"wall_s":      {median(walls), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	own, notes := s.metrics()
	for k, v := range own {
		res.Metrics[k] = v
	}
	res.Notes = append(res.Notes, notes...)

	if traced {
		pr := runProbes()
		tr := newTracer(fmt.Sprintf("%s-seed%d", w.name, seed))
		runtime.GC()
		r := s.rep(tr)
		record(r)
		overhead := (r.wall.Seconds()/median(walls) - 1) * 100
		spans := tr.spans()
		var layerNotes []string
		res.Layers, layerNotes = layerMetrics(tr.obs, spans, pr, overhead)
		res.Notes = append(res.Notes, layerNotes...)
		tracePath := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
		if err := writeTrace(tracePath, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "trace: %s (%d spans; load it in Perfetto)\nself time by lane:\n", tracePath, len(spans))
		printSelfTimes(stdout, selfTimes(spans))
	}

	// A repetition whose digest differs from the first one's changed a
	// simulated result on identical inputs: it counts as a failure.
	if n := digestMismatches(digests); n > 0 {
		res.Failed += n
		errs = append(errs, fmt.Errorf("%d of %d repetitions changed the output_digest", n, len(digests)))
	}
	res.Digest = digests[0]
	res.Correct = res.Failed == 0
	res.Metrics["failed_frac"] = metric{ratio(float64(res.Failed), float64(res.Attempt)), "ratio"}

	fmt.Fprintf(stdout, "repetitions: %d untraced (walls %s s)\n", len(walls), fmtList(walls))
	fmt.Fprintf(stdout, "output_digest: %s\n", res.Digest)
	fmt.Fprintf(stdout, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempt, res.Failed)
	for _, e := range errs {
		fmt.Fprintf(stdout, "  failure: %v\n", e)
	}
	fmt.Fprintln(stdout, "end-to-end metrics:")
	printMetrics(stdout, res.Metrics)
	if traced {
		fmt.Fprintln(stdout, "per-layer metrics:")
		printMetrics(stdout, res.Layers)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(stdout, "note: %s\n", n)
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}
