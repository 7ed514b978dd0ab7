package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"misar/internal/harness"
	"misar/internal/machine"
	"misar/internal/stats"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

// job is one simulation a figure submits: an application run, or a Fig. 5
// microbenchmark when micro is set. Submitting a job the figure already
// submitted is a memo hit on the same Runner and returns the same future.
type job struct {
	tag   string // variant name, e.g. "pthread", "msaomu2", "tm"
	app   workload.App
	micro string
	cfg   machine.Config
	lib   func() *syncrt.Lib
}

func (j job) submit(r *harness.Runner, tr *tracer) *harness.Run {
	if j.micro != "" {
		fn, _ := harness.MicroOp(j.micro)
		return r.MicroCtx(tr.context(), j.micro, fn, j.cfg, j.lib())
	}
	return r.AppCtx(tr.context(), j.app, j.cfg, j.lib())
}

// figure is one harness experiment plus the jobs it submits, in its own
// submission order. A traced repetition submits the jobs itself first, on
// the traced context, so the program's sim.build/sim.run/queue.wait spans
// land in the trace; the figure's own submissions are then memo hits.
type figure struct {
	name   string
	render func(*harness.Runner, harness.Options) (*stats.Table, error)
	jobs   func(tiles int) []job
}

// variant builds the job of a named harness variant (the same table the
// figures, misar-sim and the job server resolve configurations from).
func variant(name string, app workload.App, tiles int) job {
	cfg, lib, err := harness.Variant(name, tiles)
	if err != nil {
		panic(err)
	}
	return job{tag: name, app: app, cfg: cfg, lib: lib}
}

func suiteJobs(tiles int, names ...string) []job {
	var out []job
	for _, app := range workload.Suite() {
		for _, n := range names {
			out = append(out, variant(n, app, tiles))
		}
	}
	return out
}

// microOps and microSchemes are Fig. 5's rows and columns.
var (
	microOps     = []string{"LockAcquire", "LockHandoff", "BarrierHandoff", "CondSignal", "CondBroadcast"}
	microSchemes = []string{"pthread", "msa0", "msaomu2", "mcs-tour", "spinlock"}
)

// paperFigures is the 16-tile evaluation: Fig. 5–9 and the headline.
var paperFigures = []figure{
	{"Fig5", (*harness.Runner).Fig5, func(tiles int) []job {
		var out []job
		for _, op := range microOps {
			for _, s := range microSchemes {
				j := variant(s, workload.App{}, tiles)
				j.micro = op
				out = append(out, j)
			}
		}
		return out
	}},
	{"Fig6", (*harness.Runner).Fig6, func(tiles int) []job {
		return suiteJobs(tiles, "pthread", "msa0", "mcs-tour", "msaomu1", "msaomu2", "msainf", "ideal")
	}},
	{"Fig7", (*harness.Runner).Fig7, func(tiles int) []job {
		var out []job
		for _, app := range workload.Suite() {
			out = append(out,
				job{tag: "msaomu1", app: app, cfg: machine.MSAOMU(tiles, 1), lib: syncrt.HWLib},
				job{tag: "msaomu1-noomu", app: app, cfg: machine.WithoutOMU(machine.MSAOMU(tiles, 1)), lib: syncrt.HWLib})
		}
		return append(out, suiteJobs(tiles, "msaomu2", "msaomu2-noomu")...)
	}},
	{"Fig8", (*harness.Runner).Fig8, func(tiles int) []job {
		app, _ := workload.ByName("fluidanimate")
		return []job{variant("pthread", app, tiles), variant("msaomu2", app, tiles), variant("msaomu2-noopt", app, tiles)}
	}},
	{"Fig9", (*harness.Runner).Fig9, func(tiles int) []job {
		return suiteJobs(tiles, "pthread", "msaomu2", "msaomu2-lockonly", "msaomu2-barrieronly")
	}},
	{"Headline", (*harness.Runner).Headline, func(tiles int) []job {
		return suiteJobs(tiles, "pthread", "msaomu2", "msainf", "ideal")
	}},
}

// tmLevels are TMSweep's contention points (permille of critical sections
// on the shared hot set).
var tmLevels = []int{50, 300, 800}

// contentionFigures is the three-way pthread/MSA/TM sweep.
var contentionFigures = []figure{
	{"TMSweep", (*harness.Runner).TMSweep, func(tiles int) []job {
		var out []job
		for _, hot := range tmLevels {
			app := workload.TMSweepApp(hot)
			tm := variant("tm", app, tiles)
			tm.cfg.Metrics = true // TMSweep meters its TM runs for the abort counters
			out = append(out, variant("pthread", app, tiles), variant("msaomu2", app, tiles), tm)
		}
		return out
	}},
}

// figureRun is the outcome of one repetition of a figure workload.
type figureRun struct {
	wall      time.Duration
	tables    []*stats.Table
	jobs      []job
	runs      []*harness.Run
	runner    harness.RunnerStats // counters when the figures returned
	extraSims int                 // simulations the job lists added beyond the figures'
	errs      []error
}

// runFigures renders the figures through one shared Runner with one worker
// per CPU, exactly as misar-fig does, then collects every job's future by
// resubmitting it (memo hits) for the digest and the per-layer counters.
func runFigures(figs []figure, tiles int, tr *tracer) figureRun {
	r := harness.NewRunner(runtime.NumCPU())
	o := harness.Options{Tiles: []int{tiles}}
	var fr figureRun
	start := time.Now()
	for _, f := range figs {
		sp := tr.span("figure." + f.name)
		if tr != nil {
			for _, j := range f.jobs(tiles) {
				j.submit(r, tr)
			}
		}
		t, err := f.render(r, o)
		sp.End()
		if err != nil {
			fr.errs = append(fr.errs, fmt.Errorf("%s: %w", f.name, err))
			continue
		}
		fr.tables = append(fr.tables, t)
	}
	fr.wall = time.Since(start)
	fr.runner = r.Stats()
	if tr != nil {
		// The traced repetition submitted every job twice (itself, then the
		// figure); report the figures' own submission count.
		n := 0
		for _, f := range figs {
			n += len(f.jobs(tiles))
		}
		fr.runner.Submitted -= n
	}
	for _, f := range figs {
		for _, j := range f.jobs(tiles) {
			fr.jobs = append(fr.jobs, j)
			fr.runs = append(fr.runs, j.submit(r, nil))
		}
	}
	fr.extraSims = r.Stats().Unique - fr.runner.Unique
	return fr
}

// digestAndCheck hashes every rendered table and every job's canonical
// result, and counts failed simulations.
func (fr *figureRun) digestAndCheck() (string, int) {
	d := newDigest()
	for _, t := range fr.tables {
		var b bytes.Buffer
		t.Render(&b)
		d.add(t.Title, b.Bytes())
	}
	failed := 0
	seen := map[*harness.Run]bool{}
	for i, run := range fr.runs {
		if seen[run] {
			continue
		}
		seen[run] = true
		res, err := run.Result()
		var b []byte
		if err == nil {
			b, err = json.Marshal(res)
		}
		if err != nil {
			failed++
			fr.errs = append(fr.errs, err)
			continue
		}
		d.add(fr.jobs[i].tag+"/"+res.Label, b)
	}
	if failed == 0 {
		failed = len(fr.errs) // a figure failed without a failed simulation
	}
	return d.sum(), failed
}

// observe reads every finished machine's component counters.
func (fr *figureRun) observe(o *layerObs) {
	seen := map[*harness.Run]bool{}
	for _, run := range fr.runs {
		if seen[run] {
			continue
		}
		seen[run] = true
		if m, _, err := run.App(); err == nil && m != nil {
			o.tot.add(m)
		}
	}
	o.runner = fr.runner
}

// result returns the future of the first job with this tag and app.
func (fr *figureRun) result(tag, app string) (*harness.Result, error) {
	for i, j := range fr.jobs {
		if j.tag == tag && j.app.Name == app && j.micro == "" {
			return fr.runs[i].Result()
		}
	}
	return nil, fmt.Errorf("no %s job for %s", tag, app)
}

// headline recomputes the Headline row values at full precision from the
// job results: the geomean MSA/OMU-2 speedup over pthread and the mean
// MSA/OMU-2 coverage in percent, over the whole suite.
func (fr *figureRun) headline() (speedup, coverage float64, err error) {
	var sp, cov []float64
	for _, app := range workload.Suite() {
		base, err := fr.result("pthread", app.Name)
		if err != nil {
			return 0, 0, err
		}
		hw, err := fr.result("msaomu2", app.Name)
		if err != nil {
			return 0, 0, err
		}
		sp = append(sp, float64(base.Cycles)/float64(hw.Cycles))
		cov = append(cov, hw.Coverage*100)
	}
	return stats.Geomean(sp), stats.Mean(cov), nil
}

// tmAbortsPerCommit is the TM abort/commit ratio of the highest-contention
// point, from the metered TM run's counters.
func (fr *figureRun) tmAbortsPerCommit() (float64, error) {
	app := workload.TMSweepApp(tmLevels[len(tmLevels)-1])
	res, err := fr.result("tm", app.Name)
	if err != nil {
		return 0, err
	}
	if res.Report == nil {
		return 0, fmt.Errorf("TM run carries no metrics report")
	}
	c := res.Report.Metrics.Counters
	return ratio(float64(c["tm.aborts"]), float64(c["tm.commits"])), nil
}

// tableCell finds a rendered cell by title prefix, row-label prefix and
// column index.
func tableCell(tables []*stats.Table, title, row string, col int) (float64, error) {
	for _, t := range tables {
		if !strings.HasPrefix(t.Title, title) {
			continue
		}
		for r := 0; r < t.Rows(); r++ {
			if strings.HasPrefix(t.RowLabel(r), row) && col < len(t.Cols) {
				return strconv.ParseFloat(t.Cell(r, col), 64)
			}
		}
	}
	return 0, fmt.Errorf("no table %q with a row %q", title, row)
}

// agrees reports whether a full-precision value renders as the table's
// two-decimal cell.
func agrees(full, cell float64) bool {
	return math.Abs(full-cell) <= 0.005+1e-9
}

// figSession runs a figure workload. Its inputs are the paper's fixed
// suite, so the seed is ignored.
type figSession struct {
	figs  []figure
	tiles int
	// check derives the workload's simulated model outputs at full
	// precision and cross-checks them against the rendered tables.
	check func(*figureRun) (map[string]metric, error)
	model map[string]metric
	notes []string
}

// appJobs returns the distinct application jobs of the workload.
func (s *figSession) appJobs() []job {
	seen := map[string]bool{}
	var out []job
	for _, f := range s.figs {
		for _, j := range f.jobs(s.tiles) {
			k := j.tag + "/" + j.app.Name
			if j.micro == "" && !seen[k] {
				seen[k] = true
				out = append(out, j)
			}
		}
	}
	return out
}

// setup times building every application job's machine and program
// (machine.New, App.Build, SpawnAll — what each simulation does before its
// first event), without running them.
func (s *figSession) setup() (time.Duration, error) {
	jobs := s.appJobs()
	start := time.Now()
	for _, j := range jobs {
		m := machine.New(j.cfg)
		m.SpawnAll(j.cfg.Tiles, j.app.Build(syncrt.NewArena(0x1000000), j.cfg.Tiles, j.lib()))
	}
	return time.Since(start), nil
}

func (s *figSession) rep(tr *tracer) repResult {
	fr := runFigures(s.figs, s.tiles, tr)
	digest, failed := fr.digestAndCheck()
	r := repResult{wall: fr.wall, digest: digest, attempted: fr.runner.Unique, failed: failed, errs: fr.errs}
	if fr.extraSims > 0 && len(s.notes) == 0 {
		s.notes = append(s.notes, fmt.Sprintf("%d collected jobs were not submitted by the figures; per-layer counters include them", fr.extraSims))
	}
	if failed == 0 {
		model, err := s.check(&fr)
		if err != nil {
			r.failed++
			r.errs = append(r.errs, err)
		} else {
			s.model = model
		}
	}
	if tr != nil {
		fr.observe(&tr.obs)
	}
	return r
}

func (s *figSession) metrics() (map[string]metric, []string) {
	return s.model, append(s.notes, "msa_speedup_geomean, hw_coverage_pct and tm_aborts_per_commit are simulated model outputs (deterministic), not host times;"+
		" the paper's references are 64-tile (1.43x, 93%), so the 16-tile values carry no paper-error figure")
}

// checkHeadline is figs16's model output: the Headline geomean speedup and
// coverage, which must agree with the rendered Headline table.
func checkHeadline(fr *figureRun) (map[string]metric, error) {
	speedup, coverage, err := fr.headline()
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		row  string
		full float64
	}{{"GeoMean MSA/OMU-2 speedup", speedup}, {"Mean MSA coverage", coverage}} {
		cell, err := tableCell(fr.tables, "Headline", c.row, 0)
		if err != nil {
			return nil, err
		}
		if !agrees(c.full, cell) {
			return nil, fmt.Errorf("Headline %q is %.2f but the job results give %.4f", c.row, cell, c.full)
		}
	}
	return map[string]metric{
		"msa_speedup_geomean": {speedup, "x"},
		"hw_coverage_pct":     {coverage, "%"},
	}, nil
}

// checkTM is contention64's model output: TM aborts per commit at high
// contention, which must agree with the rendered TMSweep table.
func checkTM(fr *figureRun) (map[string]metric, error) {
	v, err := fr.tmAbortsPerCommit()
	if err != nil {
		return nil, err
	}
	cell, err := tableCell(fr.tables, "TM:", "high/", 3)
	if err != nil {
		return nil, err
	}
	if !agrees(v, cell) {
		return nil, fmt.Errorf("TMSweep high-contention aborts/commit is %.2f but the TM run gives %.4f", cell, v)
	}
	return map[string]metric{"tm_aborts_per_commit": {v, "ratio"}}, nil
}
