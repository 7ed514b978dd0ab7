// Package service is the serving layer: a long-running HTTP/JSON job server
// that turns the simulator into simulation-as-a-service. Jobs are admitted
// through a bounded queue with backpressure (429 + Retry-After when full),
// deduplicated in flight by the harness.Runner memo cache (single-flight),
// satisfied from the content-addressed persistent store when warm, and
// streamed back to the client as NDJSON progress events. The server drains
// gracefully on request: admission stops (503) while accepted jobs run to
// completion, and every result is durable in the store before Drain
// returns.
//
// Endpoints:
//
//	POST   /v1/jobs        submit; NDJSON stream (accepted/running/done/error)
//	GET    /v1/jobs/{id}   poll one job
//	DELETE /v1/jobs/{id}   cancel one job
//	GET    /healthz        liveness + queue occupancy
//	GET    /metrics        text exposition (internal/metrics registry)
//
// A job survives its client: the simulation runs under the server's
// lifecycle context, not the request context, so a disconnected client
// costs nothing but the progress stream — the result still lands in the
// store and any identical future request is a hit.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"misar/internal/fault"
	"misar/internal/harness"
	"misar/internal/machine"
	"misar/internal/metrics"
	"misar/internal/obs"
	"misar/internal/store"
	"misar/internal/trace"
	"misar/internal/workload"
)

// Options configure a Server.
type Options struct {
	// Workers is the simulation worker-pool size; < 1 means GOMAXPROCS.
	Workers int
	// QueueLimit bounds admitted-but-unfinished jobs; < 1 means 64.
	// Admission beyond the limit is refused with 429 + Retry-After: 1.
	QueueLimit int
	// StoreDir roots the persistent result store; "" disables persistence
	// (memo cache only).
	StoreDir string
	// Heartbeat is the NDJSON "running" event cadence; <= 0 means 500ms.
	Heartbeat time.Duration
	// DefaultTimeout caps each job's wall-clock execution when the request
	// does not set its own timeout_ms; 0 means unbounded.
	DefaultTimeout time.Duration
	// Logger receives structured request and job-lifecycle logs, each line
	// tagged with the job's trace ID; nil disables logging.
	Logger *slog.Logger
	// StreamWriteTimeout bounds each write on a job's NDJSON stream. A
	// consumer that cannot drain a write within this budget is disconnected
	// (the job itself is unaffected), so one stalled client can never pin a
	// handler goroutine forever. <= 0 means 30s.
	StreamWriteTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueLimit < 1 {
		o.QueueLimit = 64
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
	if o.StreamWriteTimeout <= 0 {
		o.StreamWriteTimeout = 30 * time.Second
	}
	return o
}

// Server is one serving instance. Create with New, expose via Handler,
// shut down with Drain (graceful) and/or Close (hard).
type Server struct {
	opt    Options
	runner *harness.Runner
	store  *store.Store
	start  time.Time
	log    *slog.Logger  // nil disables logging
	spans  *obs.Recorder // server-side wall-clock span ring

	baseCtx context.Context // parent of every job; cancelled by Close
	stop    context.CancelFunc

	// met guards the serving-side metrics registry: the sim-side
	// instruments are single-writer by design, so concurrent HTTP handlers
	// must serialize around one registry.
	met sync.Mutex
	reg *metrics.Registry
	mux *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // finished job IDs in completion order, for pruning
	nextID   uint64
	admitted int // accepted, not yet finished
	accepted uint64
	draining bool
	wg       sync.WaitGroup // one per admitted job
}

// keepFinished bounds how many completed job records stay queryable; older
// ones are pruned so a long-running server's job table cannot grow without
// bound (results remain in the persistent store regardless).
const keepFinished = 1024

// Job tracks one admitted simulation.
type Job struct {
	ID    string
	Label string
	Trace string // end-to-end trace ID (client-minted or server-minted)

	cancel context.CancelFunc
	run    *harness.Run
	start  time.Time
	done   chan struct{} // closed after the fields below are final

	// Written by reap before close(done); read only after <-done.
	result    *harness.Result
	errMsg    string
	fromStore bool
	elapsed   time.Duration
	flight    obs.FlightDump // the simulation's flight-recorder tail
}

// New builds a Server (opening the store when configured) but does not
// listen; callers mount Handler on an http.Server of their choosing.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	s := &Server{
		opt:   opt,
		start: time.Now(),
		log:   opt.Logger,
		reg:   metrics.NewRegistry(),
		spans: obs.NewRecorder(0),
		jobs:  make(map[string]*Job),
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	s.runner = harness.NewRunner(opt.Workers)
	if opt.StoreDir != "" {
		st, err := store.Open(opt.StoreDir)
		if err != nil {
			return nil, err
		}
		s.store = st
		if opt.Logger != nil {
			st.SetLogger(opt.Logger)
		}
		s.runner.SetStore(st)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.Handle("POST /v1/jobs", s.instrument("jobs_submit", s.handleSubmit))
	mux.Handle("GET /v1/jobs/{id}", s.instrument("jobs_get", s.handleJobGet))
	mux.Handle("DELETE /v1/jobs/{id}", s.instrument("jobs_cancel", s.handleJobCancel))
	mux.Handle("GET /v1/jobs/{id}/flight", s.instrument("jobs_flight", s.handleJobFlight))
	mux.Handle("GET /v1/jobs/{id}/trace", s.instrument("jobs_trace", s.handleJobTrace))
	// Profiling and runtime tracing, mounted explicitly (no blanket
	// DefaultServeMux import): /debug/pprof/profile?seconds=N captures a CPU
	// profile of a live server, /debug/pprof/trace?seconds=N a runtime
	// execution trace (loadable with `go tool trace`).
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// RunnerStats exposes the underlying runner's counters (tests, ops).
func (s *Server) RunnerStats() harness.RunnerStats { return s.runner.Stats() }

// Recorder exposes the server-side span recorder, so an in-process caller
// can merge the server's spans into its own trace.
func (s *Server) Recorder() *obs.Recorder { return s.spans }

// StoreStats exposes the persistent store's counters; zero when no store.
func (s *Server) StoreStats() store.Stats {
	if s.store == nil {
		return store.Stats{}
	}
	return s.store.Stats()
}

// Drain stops admission (new submissions get 503) and waits until every
// already-admitted job has finished or ctx expires. Results are fsync'd
// into the store as each job completes, so a drained server owes nothing.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted with jobs in flight: %w", ctx.Err())
	}
}

// Close hard-cancels every in-flight job (their simulations stop at the
// next cancellation poll) and stops admission. Use after a failed Drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stop()
}

// inc bumps a serving-side counter under the metrics lock.
func (s *Server) inc(name string) {
	s.met.Lock()
	s.reg.Counter(name).Inc()
	s.met.Unlock()
}

// statusWriter captures the response status for request logging while
// passing Flush and (via Unwrap, for http.ResponseController) write
// deadlines through to the underlying writer.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with request counting, a latency histogram
// (microseconds) keyed per endpoint, and structured request logging tagged
// with the request's trace ID.
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		elapsed := time.Since(t0)
		s.met.Lock()
		s.reg.Counter("http.requests." + name).Inc()
		s.reg.Histogram("http.latency_us." + name).Observe(uint64(elapsed.Microseconds()))
		s.met.Unlock()
		if s.log != nil {
			attrs := []any{
				"method", r.Method, "path", r.URL.Path,
				"status", sw.status, "dur_ms", elapsed.Milliseconds(),
			}
			// The handler echoes the effective trace ID; fall back to the
			// client's header for requests that do not mint one.
			id := sw.Header().Get(TraceHeader)
			if id == "" {
				id = r.Header.Get(TraceHeader)
			}
			if id != "" {
				attrs = append(attrs, "trace", id)
			}
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "http "+name, toAttrs(attrs)...)
		}
	})
}

// toAttrs converts alternating key/value pairs to slog attributes.
func toAttrs(kv []any) []slog.Attr {
	out := make([]slog.Attr, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, slog.Any(kv[i].(string), kv[i+1]))
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	h := Health{
		Status:     "ok",
		InFlight:   s.admitted,
		QueueDepth: s.admitted,
		QueueFree:  s.opt.QueueLimit - s.admitted,
		QueueLimit: s.opt.QueueLimit,
		Accepted:   s.accepted,
		UptimeMS:   time.Since(s.start).Milliseconds(),
	}
	if s.draining {
		h.Status = "draining"
		h.Draining = true
	}
	s.mu.Unlock()
	if h.QueueFree < 0 {
		h.QueueFree = 0
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := 0
	if s.draining {
		draining = 1
	}
	s.mu.Unlock()
	rs := s.runner.Stats()

	// The level gauges reflect the instant of the scrape: queue depth is
	// maintained at admission/reap, simulations in flight derives from the
	// runner counters here (the runner has no level hook of its own).
	s.met.Lock()
	s.reg.Level("serve.sims.inflight").Set(int64(rs.Unique - rs.Done))
	snap := s.reg.Snapshot()
	s.met.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	metrics.WriteText(w, "misar", snap)
	fmt.Fprintf(w, "misar_runner_done %d\n", rs.Done)
	fmt.Fprintf(w, "misar_runner_executed %d\n", rs.Executed)
	fmt.Fprintf(w, "misar_runner_memo_hits %d\n", rs.Submitted-rs.Unique)
	fmt.Fprintf(w, "misar_runner_store_hits %d\n", rs.StoreHits)
	fmt.Fprintf(w, "misar_runner_submitted %d\n", rs.Submitted)
	fmt.Fprintf(w, "misar_runner_unique %d\n", rs.Unique)
	if rs.Submitted > 0 {
		hit := float64(rs.Submitted-rs.Executed) / float64(rs.Submitted)
		fmt.Fprintf(w, "misar_cache_hit_ratio %.6f\n", hit)
	}
	fmt.Fprintf(w, "misar_serve_draining %d\n", draining)
	fmt.Fprintf(w, "misar_serve_queue_limit %d\n", s.opt.QueueLimit)
	if s.store != nil {
		ss := s.store.Stats()
		fmt.Fprintf(w, "misar_store_evictions %d\n", ss.Evictions)
		fmt.Fprintf(w, "misar_store_hits %d\n", ss.Hits)
		fmt.Fprintf(w, "misar_store_misses %d\n", ss.Misses)
		fmt.Fprintf(w, "misar_store_puts %d\n", ss.Puts)
	}
}

// buildSubmit validates a request and returns the submission closure. All
// validation happens before admission, so a malformed request never
// occupies a queue slot.
func buildSubmit(req *JobRequest) (label string, submit func(context.Context, *harness.Runner) *harness.Run, err error) {
	cfg, libf, err := harness.Variant(req.Config, req.Tiles)
	if err != nil {
		return "", nil, err
	}
	if err := machine.Validate(cfg); err != nil {
		return "", nil, err
	}
	cfg.Metrics = req.Metrics
	if req.FaultPlan != nil {
		cfg.Fault = *req.FaultPlan
		cfg.Invariants = true
	} else if req.FaultSeed != 0 {
		cfg.Fault = fault.DefaultPlan(req.FaultSeed)
		cfg.Invariants = true
	}
	if req.Invariants {
		cfg.Invariants = true
	}
	switch req.Kind {
	case "", "app":
		app, ok := workload.ByName(req.App)
		if !ok {
			return "", nil, fmt.Errorf("unknown app %q", req.App)
		}
		return fmt.Sprintf("%s on %s", app.Name, cfg.Name),
			func(ctx context.Context, r *harness.Runner) *harness.Run {
				return r.AppCtx(ctx, app, cfg, libf())
			}, nil
	case "micro":
		op := req.App
		fn, ok := harness.MicroOp(op)
		if !ok {
			return "", nil, fmt.Errorf("unknown micro op %q (known: %v)", op, harness.MicroOpNames())
		}
		return fmt.Sprintf("%s on %s", op, cfg.Name),
			func(ctx context.Context, r *harness.Runner) *harness.Run {
				return r.MicroCtx(ctx, op, fn, cfg, libf())
			}, nil
	default:
		return "", nil, fmt.Errorf("unknown kind %q (want \"app\" or \"micro\")", req.Kind)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.inc("serve.jobs_rejected_bad_request")
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request: " + err.Error()})
		return
	}
	label, submit, err := buildSubmit(&req)
	if err != nil {
		s.inc("serve.jobs_rejected_bad_request")
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}

	// Trace identity: a client that sets the header owns the ID (its spans
	// and ours share one timeline); otherwise the server mints one. Either
	// way the response echoes the effective ID.
	traceID := r.Header.Get(TraceHeader)
	if traceID == "" {
		traceID = obs.NewTraceID()
	}

	// The job's context descends from the SERVER lifecycle, not the
	// request: a client that hangs up has abandoned the stream, not the
	// simulation. Its result still lands in the store.
	timeout := s.opt.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	var jobCtx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		jobCtx, cancel = context.WithTimeout(s.baseCtx, timeout)
	} else {
		jobCtx, cancel = context.WithCancel(s.baseCtx)
	}
	jobCtx = obs.WithRecorder(obs.WithTrace(jobCtx, traceID), s.spans)

	// Admission control: bounded queue of unfinished jobs.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		s.inc("serve.jobs_rejected_draining")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server is draining"})
		return
	}
	if s.admitted >= s.opt.QueueLimit {
		s.mu.Unlock()
		cancel()
		s.inc("serve.jobs_rejected_queue_full")
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: "queue full"})
		return
	}
	s.admitted++
	s.accepted++
	s.nextID++
	depth := s.admitted
	job := &Job{
		ID:     fmt.Sprintf("j-%08d", s.nextID),
		Label:  label,
		Trace:  traceID,
		cancel: cancel,
		start:  time.Now(),
		done:   make(chan struct{}),
	}
	s.jobs[job.ID] = job
	s.wg.Add(1)
	s.mu.Unlock()
	s.met.Lock()
	s.reg.Counter("serve.jobs_accepted").Inc()
	s.reg.Level("serve.queue.depth").Set(int64(depth))
	s.reg.Gauge("serve.queue.depth.max").Observe(uint64(depth))
	s.met.Unlock()
	if s.log != nil {
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "job accepted",
			slog.String("job", job.ID), slog.String("label", job.Label),
			slog.String("trace", job.Trace), slog.Int("queue_depth", depth))
	}

	job.run = submit(jobCtx, s.runner)
	go s.reap(job)

	w.Header().Set(TraceHeader, traceID)

	// ?wait=0: fire-and-poll. One "accepted" JSON object, then done.
	if r.URL.Query().Get("wait") == "0" {
		writeJSON(w, http.StatusAccepted, JobEvent{Event: "accepted", Job: job.ID, Label: job.Label, Trace: job.Trace})
		return
	}
	s.stream(w, r, job)
}

// reap waits for the job's run, finalizes the job record, and releases its
// queue slot. Exactly one reap per admitted job.
func (s *Server) reap(job *Job) {
	res, err := job.run.Result()
	if err != nil {
		job.errMsg = err.Error()
	} else {
		job.result = res
		job.fromStore = job.run.FromStore()
	}
	job.elapsed = time.Since(job.start)
	// Capture the flight-recorder tail before publishing the job as done:
	// on failure it is the dump embedded in the error (the window around
	// the hang/violation), on success the machine's live ring.
	if evs := job.run.Flight(); len(evs) > 0 {
		job.flight = obs.FlightDump{
			Schema: obs.FlightDumpSchema,
			Job:    job.ID,
			Label:  job.Label,
			Trace:  job.Trace,
			Total:  uint64(len(evs)),
			Events: evs,
		}
	}
	// One umbrella span per job, covering admission to completion, so the
	// Chrome trace shows queue wait + store lookup + sim phases nested
	// under the job they belong to.
	s.spans.Record(trace.Span{
		Trace: job.Trace,
		Proc:  "served",
		Name:  "job " + job.ID,
		Start: job.start.UnixMicro(),
		Dur:   job.elapsed.Microseconds(),
		Args:  map[string]string{"label": job.Label, "from_store": fmt.Sprint(job.fromStore)},
	})
	close(job.done)

	s.mu.Lock()
	s.admitted--
	depth := s.admitted
	s.finished = append(s.finished, job.ID)
	for len(s.finished) > keepFinished {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
	s.met.Lock()
	s.reg.Level("serve.queue.depth").Set(int64(depth))
	s.met.Unlock()
	outcome := "done"
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.inc("serve.jobs_cancelled")
			outcome = "cancelled"
		} else {
			s.inc("serve.jobs_failed")
			outcome = "failed"
		}
	} else {
		s.inc("serve.jobs_done")
		if job.fromStore {
			s.inc("serve.jobs_from_store")
		}
	}
	if s.log != nil {
		attrs := []slog.Attr{
			slog.String("job", job.ID), slog.String("label", job.Label),
			slog.String("trace", job.Trace), slog.String("outcome", outcome),
			slog.Int64("elapsed_ms", job.elapsed.Milliseconds()),
			slog.Bool("from_store", job.fromStore),
		}
		if job.errMsg != "" {
			attrs = append(attrs, slog.String("error", job.errMsg))
		}
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "job "+outcome, attrs...)
	}
	s.wg.Done()
}

// stream writes the job's NDJSON event stream: accepted, periodic running
// heartbeats, and a final done/error event. A client disconnect ends the
// stream silently; the job itself keeps running. Every write carries a
// deadline (Options.StreamWriteTimeout) so a consumer that stops reading
// is disconnected instead of pinning this goroutine on a full socket
// buffer — the job is unaffected either way.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, job *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	deadlines := true
	emit := func(ev JobEvent) bool {
		if deadlines {
			if err := rc.SetWriteDeadline(time.Now().Add(s.opt.StreamWriteTimeout)); err != nil {
				// Recorders (httptest) don't support deadlines; stream
				// unbounded rather than fail.
				deadlines = false
			}
		}
		if err := enc.Encode(ev); err != nil {
			s.inc("serve.streams_dropped_slow")
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !emit(JobEvent{Event: "accepted", Job: job.ID, Label: job.Label, Trace: job.Trace}) {
		return
	}

	ticker := time.NewTicker(s.opt.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-job.done:
			ev := JobEvent{
				Job:       job.ID,
				Label:     job.Label,
				ElapsedMS: job.elapsed.Milliseconds(),
				FromStore: job.fromStore,
				Trace:     job.Trace,
				Spans:     s.spans.SpansFor(job.Trace),
			}
			if job.errMsg != "" {
				ev.Event, ev.Error = "error", job.errMsg
			} else {
				ev.Event, ev.Result = "done", job.result
			}
			emit(ev)
			return
		case <-ticker.C:
			if !emit(JobEvent{
				Event:     "running",
				Job:       job.ID,
				Label:     job.Label,
				ElapsedMS: time.Since(job.start).Milliseconds(),
			}) {
				return
			}
		case <-r.Context().Done():
			// Client gone; the job continues under s.baseCtx.
			s.inc("serve.streams_disconnected")
			return
		}
	}
}

// status snapshots a job's public state.
func (s *Server) status(job *Job) JobStatus {
	st := JobStatus{ID: job.ID, Label: job.Label, Trace: job.Trace}
	select {
	case <-job.done:
		st.ElapsedMS = job.elapsed.Milliseconds()
		st.FromStore = job.fromStore
		if job.errMsg != "" {
			st.State, st.Error = "failed", job.errMsg
		} else {
			st.State, st.Result = "done", job.result
		}
	default:
		st.State = "running"
		st.ElapsedMS = time.Since(job.start).Milliseconds()
	}
	return st
}

func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	return job, ok
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, s.status(job))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	job.cancel()
	writeJSON(w, http.StatusOK, s.status(job))
}

// handleJobFlight serves the job's flight-recorder dump: the tail of sim
// events leading up to completion (or, for a failed job, up to the hang or
// violation the watchdog diagnosed). Render it with misar-trace -from-flight.
func (s *Server) handleJobFlight(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	select {
	case <-job.done:
	default:
		writeJSON(w, http.StatusConflict, apiError{Error: "job still running; flight dump is available on completion"})
		return
	}
	if len(job.flight.Events) == 0 {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no flight events recorded (result served from cache or store)"})
		return
	}
	w.Header().Set(TraceHeader, job.Trace)
	writeJSON(w, http.StatusOK, job.flight)
}

// handleJobTrace serves the job's server-side spans as a Chrome trace (load
// at ui.perfetto.dev or chrome://tracing). The client's NDJSON terminal
// event carries the same spans, so this endpoint exists for operators
// inspecting jobs they did not submit.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	spans := s.spans.SpansFor(job.Trace)
	if len(spans) == 0 {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no spans recorded for this job yet"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(TraceHeader, job.Trace)
	trace.WriteChromeSpans(w, spans)
}
