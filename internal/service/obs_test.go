package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"misar/internal/obs"
	"misar/internal/service"
	"misar/internal/trace"
)

// TestTraceGoldenStructure is the tracing acceptance criterion: one served
// job yields one coherent set of spans — client submit, queue wait, store
// lookup, and the per-phase sim spans — all sharing the trace ID minted at
// the client, and the merged set renders as a single Chrome trace.
func TestTraceGoldenStructure(t *testing.T) {
	_, _, c := newServer(t, service.Options{Workers: 1, StoreDir: t.TempDir()})

	// The client mints the trace ID and records its own spans.
	id := obs.NewTraceID()
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(obs.WithTrace(context.Background(), id), rec)

	final, err := c.Submit(ctx, quickJob(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Trace != id {
		t.Fatalf("terminal event trace %q, want client-minted %q", final.Trace, id)
	}

	// Merge server-side spans (from the terminal event) with the client's.
	spans := append([]trace.Span{}, final.Spans...)
	spans = append(spans, rec.SpansFor(id)...)

	// Golden structure: every expected proc/name pair present exactly, and
	// every span on the one trace ID.
	want := map[string]bool{
		"client/client.submit": false,
		"harness/queue.wait":   false,
		"harness/store.lookup": false,
		"sim/sim.build":        false,
		"sim/sim.run":          false,
		"served/job":           false,
	}
	for _, sp := range spans {
		if sp.Trace != id {
			t.Errorf("span %s/%s has trace %q, want %q", sp.Proc, sp.Name, sp.Trace, id)
		}
		key := sp.Proc + "/" + sp.Name
		if sp.Proc == "served" && strings.HasPrefix(sp.Name, "job ") {
			key = "served/job"
		}
		if _, ok := want[key]; ok {
			want[key] = true
		}
	}
	for key, seen := range want {
		if !seen {
			t.Errorf("missing span %s in %d spans: %+v", key, len(spans), names(spans))
		}
	}

	// The merged set must render as one loadable Chrome trace.
	var buf bytes.Buffer
	if err := trace.WriteChromeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &envelope); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	procs := map[string]bool{}
	for _, ev := range envelope.Events {
		if ev["name"] == "process_name" {
			args := ev["args"].(map[string]any)
			procs[args["name"].(string)] = true
		}
	}
	for _, p := range []string{"client", "served", "harness", "sim"} {
		if !procs[p] {
			t.Errorf("chrome trace missing process lane %q", p)
		}
	}
}

func names(spans []trace.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Proc + "/" + sp.Name
	}
	return out
}

// A client that does not mint a trace ID still gets one: the server mints
// it, echoes it in the response header, and tags the job with it.
func TestServerMintsTraceID(t *testing.T) {
	_, _, c := newServer(t, service.Options{Workers: 1})
	final, err := c.Submit(context.Background(), quickJob(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Trace == "" {
		t.Fatal("terminal event has no trace ID")
	}
	st, err := c.Status(context.Background(), final.Job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace != final.Trace {
		t.Errorf("status trace %q != stream trace %q", st.Trace, final.Trace)
	}
}

// TestHealthzQueueOccupancyAndDraining: /healthz must report live queue
// occupancy and flip to draining with the boolean set.
func TestHealthzQueueOccupancyAndDraining(t *testing.T) {
	s, hs, c := newServer(t, service.Options{Workers: 1, QueueLimit: 4})

	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Draining || h.QueueDepth != 0 || h.QueueFree != 4 {
		t.Fatalf("idle health: %+v", h)
	}

	id, code, _ := asyncSubmit(t, hs.URL, slowJob(48))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	h, err = c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.QueueDepth != 1 || h.QueueFree != 3 || h.InFlight != 1 {
		t.Errorf("health with one job in flight: %+v", h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	h, err = c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Draining || h.Status != "draining" {
		t.Errorf("post-drain health: %+v", h)
	}
	if h.QueueDepth != 0 {
		t.Errorf("drained server reports queue depth %d", h.QueueDepth)
	}
	_ = id

	// The queue-depth level gauge must have come back DOWN to zero (the
	// watermark keeps the max) — the regression the level gauge exists for.
	scrape := httpGet(t, hs.URL+"/metrics")
	for _, want := range []string{"misar_serve_queue_depth 0", "misar_serve_queue_depth_max 1"} {
		if !strings.Contains(scrape, want) {
			t.Errorf("metrics missing %q:\n%s", want, scrape)
		}
	}
}

// slowSink is a ResponseWriter whose consumer never drains: the first write
// (the accepted event) succeeds, every later write blocks until the write
// deadline set via SetWriteDeadline (discovered by http.ResponseController
// through the server's wrapper chain) and then fails, like a TCP socket
// with a full send buffer.
type slowSink struct {
	mu       sync.Mutex
	h        http.Header
	deadline time.Time
	writes   int
}

func (w *slowSink) Header() http.Header {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}

func (w *slowSink) WriteHeader(int) {}

func (w *slowSink) SetWriteDeadline(t time.Time) error {
	w.mu.Lock()
	w.deadline = t
	w.mu.Unlock()
	return nil
}

func (w *slowSink) Write(b []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	first := w.writes == 1
	d := w.deadline
	w.mu.Unlock()
	if first {
		return len(b), nil
	}
	if !d.IsZero() {
		time.Sleep(time.Until(d))
	}
	return 0, os.ErrDeadlineExceeded
}

// TestSlowStreamConsumerDisconnected is the slow-consumer regression test:
// a client that stops reading its NDJSON stream must be cut loose within
// the write-deadline budget — the handler goroutine returns, the drop is
// counted, and the job itself still completes.
func TestSlowStreamConsumerDisconnected(t *testing.T) {
	s, hs, c := newServer(t, service.Options{
		Workers:            1,
		Heartbeat:          10 * time.Millisecond,
		StreamWriteTimeout: 100 * time.Millisecond,
	})

	body, _ := json.Marshal(slowJob(32))
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	sink := &slowSink{}

	returned := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(sink, req)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("stream handler still pinned by a slow consumer after 10s")
	}

	scrape := httpGet(t, hs.URL+"/metrics")
	if !strings.Contains(scrape, "misar_serve_streams_dropped_slow 1") {
		t.Errorf("slow-consumer drop not counted:\n%s", scrape)
	}

	// The job survives its abandoned stream.
	var jobID string
	deadline := time.Now().Add(10 * time.Second)
	for jobID == "" && time.Now().Before(deadline) {
		h, err := c.Health(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h.Accepted >= 1 {
			jobID = fmt.Sprintf("j-%08d", 1)
		}
	}
	st := waitDone(t, c, jobID)
	if st.State != "done" {
		t.Fatalf("job after slow-consumer disconnect: %+v", st)
	}
}

// TestFlightEndpoint: a completed job exposes its flight-recorder dump; a
// running job answers 409.
func TestFlightEndpoint(t *testing.T) {
	_, hs, c := newServer(t, service.Options{Workers: 1})

	final, err := c.Submit(context.Background(), quickJob(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/" + final.Job + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight endpoint: %d", resp.StatusCode)
	}
	var dump obs.FlightDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Schema != obs.FlightDumpSchema {
		t.Errorf("dump schema %q, want %q", dump.Schema, obs.FlightDumpSchema)
	}
	if dump.Job != final.Job || dump.Trace != final.Trace {
		t.Errorf("dump identity %q/%q, want %q/%q", dump.Job, dump.Trace, final.Job, final.Trace)
	}
	if len(dump.Events) == 0 {
		t.Fatal("flight dump has no events")
	}
	// Events must be decodable sim history, in time order.
	for i := 1; i < len(dump.Events); i++ {
		if dump.Events[i].At < dump.Events[i-1].At {
			t.Fatalf("flight events out of order at %d", i)
		}
	}

	// A running job refuses with 409.
	id, code, _ := asyncSubmit(t, hs.URL, slowJob(64))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	resp2, err := http.Get(hs.URL + "/v1/jobs/" + id + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("flight of running job: %d, want 409", resp2.StatusCode)
	}
	waitDone(t, c, id)
}

// TestJobTraceEndpoint: GET /v1/jobs/{id}/trace serves a Chrome trace of
// the job's server-side spans.
func TestJobTraceEndpoint(t *testing.T) {
	_, hs, c := newServer(t, service.Options{Workers: 1})
	final, err := c.Submit(context.Background(), quickJob(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/" + final.Job + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(service.TraceHeader); got != final.Trace {
		t.Errorf("trace endpoint header %q, want %q", got, final.Trace)
	}
	var envelope struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("trace endpoint did not serve JSON: %v", err)
	}
	if len(envelope.Events) == 0 {
		t.Fatal("empty chrome trace")
	}
}
