package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"misar/internal/service"
	"misar/internal/service/client"
)

func newServer(t *testing.T, opt service.Options) (*service.Server, *httptest.Server, *client.Client) {
	t.Helper()
	if opt.Heartbeat == 0 {
		opt.Heartbeat = 20 * time.Millisecond
	}
	s, err := service.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		hs.Close()
	})
	return s, hs, client.New(hs.URL)
}

// quickJob is small enough to finish in tens of milliseconds.
func quickJob() service.JobRequest {
	return service.JobRequest{App: "streamcluster", Config: "msaomu2", Tiles: 4}
}

// slowJob runs long enough (hundreds of milliseconds) that tests can
// observe it in flight.
func slowJob(tiles int) service.JobRequest {
	return service.JobRequest{App: "fluidanimate", Config: "msaomu2", Tiles: tiles}
}

// TestRoundTripDedupAndRestart is the tentpole acceptance criterion: a cold
// server runs two identical submissions as ONE simulation (single-flight +
// store), visibly in /metrics, and a restarted server serves the third
// request entirely from the persistent store.
func TestRoundTripDedupAndRestart(t *testing.T) {
	dir := t.TempDir()
	s1, hs1, c1 := newServer(t, service.Options{Workers: 2, StoreDir: dir})

	var events []string
	final, err := c1.Submit(context.Background(), quickJob(), func(ev service.JobEvent) {
		events = append(events, ev.Event)
	})
	if err != nil {
		t.Fatal(err)
	}
	if events[0] != "accepted" {
		t.Errorf("first event %q, want accepted", events[0])
	}
	if final.Result == nil || final.Result.Cycles == 0 {
		t.Fatalf("done event missing result: %+v", final)
	}
	if final.FromStore {
		t.Error("cold run claimed from_store")
	}

	// Identical second submission: memo or store hit, never a second sim.
	second, err := c1.Submit(context.Background(), quickJob(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Result.Cycles != final.Result.Cycles {
		t.Errorf("dedup returned different cycles: %d vs %d", second.Result.Cycles, final.Result.Cycles)
	}
	if rs := s1.RunnerStats(); rs.Executed != 1 {
		t.Errorf("two identical submissions executed %d sims, want 1", rs.Executed)
	}

	// /metrics must expose the single-flight evidence.
	scrape := httpGet(t, hs1.URL+"/metrics")
	for _, want := range []string{"misar_runner_executed 1", "misar_serve_jobs_accepted 2"} {
		if !strings.Contains(scrape, want) {
			t.Errorf("metrics missing %q:\n%s", want, scrape)
		}
	}

	// "Restart": a fresh server over the same store directory.
	s2, _, c2 := newServer(t, service.Options{Workers: 2, StoreDir: dir})
	third, err := c2.Submit(context.Background(), quickJob(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !third.FromStore {
		t.Error("restarted server did not serve from the persistent store")
	}
	if third.Result.Cycles != final.Result.Cycles {
		t.Errorf("store replay cycles %d, cold cycles %d", third.Result.Cycles, final.Result.Cycles)
	}
	if rs := s2.RunnerStats(); rs.Executed != 0 || rs.StoreHits != 1 {
		t.Errorf("restarted server stats %+v, want 0 executed / 1 store hit", rs)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// asyncSubmit posts with ?wait=0 and returns the accepted job ID (or the
// response status code on rejection).
func asyncSubmit(t *testing.T, base string, req service.JobRequest) (string, int, http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/jobs?wait=0", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ev service.JobEvent
	json.NewDecoder(resp.Body).Decode(&ev)
	return ev.Job, resp.StatusCode, resp.Header
}

func TestQueueFullBackpressure(t *testing.T) {
	_, hs, c := newServer(t, service.Options{Workers: 1, QueueLimit: 2})

	// Fill the queue with two distinct slow jobs (one occupies the worker,
	// one queues), then a third must bounce with 429. Jobs are real
	// simulations, so on a loaded machine the pair can drain before the
	// third submission lands; retry with fresh tile counts (fresh memo
	// keys) until the full-queue window is observed.
	tiles := []int{32, 48, 64, 16, 24, 40, 8, 12, 20}
	bounced := false
	for attempt := 0; attempt+2 < len(tiles) && !bounced; attempt += 3 {
		waitQueueEmpty(t, c)
		id1, code1, _ := asyncSubmit(t, hs.URL, slowJob(tiles[attempt]))
		id2, code2, _ := asyncSubmit(t, hs.URL, slowJob(tiles[attempt+1]))
		if code1 != http.StatusAccepted || code2 != http.StatusAccepted {
			t.Fatalf("setup submissions: %d, %d", code1, code2)
		}
		_, code3, hdr := asyncSubmit(t, hs.URL, slowJob(tiles[attempt+2]))
		switch code3 {
		case http.StatusTooManyRequests:
			bounced = true
			if hdr.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		case http.StatusAccepted:
			t.Logf("attempt %d: queue drained before third submission, retrying", attempt/3)
		default:
			t.Fatalf("third submission got %d, want 429 or 202", code3)
		}
		waitDone(t, c, id1)
		waitDone(t, c, id2)
	}
	if !bounced {
		t.Fatal("never observed a 429 with a full queue")
	}

	// Queue drained: the same previously-bounced job must now be admitted.
	waitQueueEmpty(t, c)
	_, code, _ := asyncSubmit(t, hs.URL, slowJob(64))
	if code != http.StatusAccepted {
		t.Errorf("post-drain submission got %d, want 202", code)
	}
}

// waitQueueEmpty polls /healthz until no jobs are admitted-but-unfinished.
func waitQueueEmpty(t *testing.T, c *client.Client) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		h, err := c.Health(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h.InFlight == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("queue never emptied")
}

func waitDone(t *testing.T, c *client.Client, id string) *service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "running" {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// TestClientDisconnectJobCompletes: killing the progress stream must not
// kill the job — it finishes under the server's context and the result
// lands in the persistent store.
func TestClientDisconnectJobCompletes(t *testing.T) {
	s, hs, c := newServer(t, service.Options{Workers: 1, StoreDir: t.TempDir()})

	req := slowJob(32)
	body, _ := json.Marshal(req)
	hctx, hcancel := context.WithCancel(context.Background())
	hreq, _ := http.NewRequestWithContext(hctx, http.MethodPost, hs.URL+"/v1/jobs", strings.NewReader(string(body)))
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	// Read just the accepted line, then hang up mid-stream.
	dec := json.NewDecoder(resp.Body)
	var accepted service.JobEvent
	if err := dec.Decode(&accepted); err != nil || accepted.Event != "accepted" {
		t.Fatalf("accepted event: %+v, %v", accepted, err)
	}
	hcancel()
	resp.Body.Close()

	st := waitDone(t, c, accepted.Job)
	if st.State != "done" {
		t.Fatalf("job after disconnect: %+v", st)
	}
	if ss := s.StoreStats(); ss.Puts != 1 {
		t.Errorf("store puts = %d, want 1 (disconnected job must persist)", ss.Puts)
	}
	// And a rerun of the same request is a pure hit.
	final, err := c.Submit(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs := s.RunnerStats(); rs.Executed != 1 {
		t.Errorf("executed %d sims, want 1 (second was warm) — final %+v", rs.Executed, final)
	}
}

func TestCancelEndpoint(t *testing.T) {
	_, hs, c := newServer(t, service.Options{Workers: 1})
	id, code, _ := asyncSubmit(t, hs.URL, slowJob(64))
	if code != http.StatusAccepted {
		t.Fatal("setup submit failed")
	}
	if _, err := c.Cancel(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, c, id)
	if st.State != "failed" || !strings.Contains(st.Error, "cancelled") {
		t.Errorf("cancelled job status: %+v", st)
	}
	// Cancelling nonsense 404s.
	if _, err := c.Cancel(context.Background(), "j-99999999"); err == nil {
		t.Error("cancel of unknown job succeeded")
	}
}

// TestGracefulDrain: draining returns every accepted job, refuses new ones
// with 503, and leaves each result in the store.
func TestGracefulDrain(t *testing.T) {
	s, hs, c := newServer(t, service.Options{Workers: 2, QueueLimit: 8, StoreDir: t.TempDir()})

	var ids []string
	for _, tiles := range []int{16, 24, 32} {
		id, code, _ := asyncSubmit(t, hs.URL, slowJob(tiles))
		if code != http.StatusAccepted {
			t.Fatalf("submit %dc: %d", tiles, code)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Errorf("after drain, job %s is %s (%s)", id, st.State, st.Error)
		}
	}
	if ss := s.StoreStats(); ss.Puts != uint64(len(ids)) {
		t.Errorf("store puts = %d, want %d", ss.Puts, len(ids))
	}
	if _, code, _ := asyncSubmit(t, hs.URL, quickJob()); code != http.StatusServiceUnavailable {
		t.Errorf("submission while draining got %d, want 503", code)
	}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("health status %q, want draining", h.Status)
	}
}

// TestStress100Clients hammers the server with 100 concurrent streaming
// clients spread over four distinct experiments. Single-flight must collapse
// them to at most four simulations, and every client must get a result.
// Run under -race in CI.
func TestStress100Clients(t *testing.T) {
	s, _, c := newServer(t, service.Options{Workers: 4, QueueLimit: 256, StoreDir: t.TempDir()})

	reqs := []service.JobRequest{
		{Kind: "micro", App: "LockAcquire", Config: "msaomu2", Tiles: 4},
		{Kind: "micro", App: "BarrierHandoff", Config: "msaomu2", Tiles: 4},
		{App: "streamcluster", Config: "msaomu2", Tiles: 4},
		{App: "streamcluster", Config: "msa0", Tiles: 4},
	}
	const clients = 100
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev, err := c.Submit(context.Background(), reqs[i%len(reqs)], nil)
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			if ev.Result == nil {
				errs <- fmt.Errorf("client %d: no result", i)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	rs := s.RunnerStats()
	if rs.Executed > len(reqs) {
		t.Errorf("100 clients over %d experiments executed %d sims", len(reqs), rs.Executed)
	}
	if rs.Submitted != clients {
		t.Errorf("submitted %d, want %d", rs.Submitted, clients)
	}
}

func TestBadRequests(t *testing.T) {
	_, hs, _ := newServer(t, service.Options{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"unknown app", `{"app":"nope","config":"msaomu2","tiles":4}`},
		{"unknown config", `{"app":"streamcluster","config":"nope","tiles":4}`},
		{"bad tiles", `{"app":"streamcluster","config":"msaomu2","tiles":0}`},
		{"oversized tiles", `{"app":"streamcluster","config":"msaomu2","tiles":4096}`},
		{"unknown kind", `{"kind":"nope","app":"streamcluster","config":"msaomu2","tiles":4}`},
		{"unknown micro", `{"kind":"micro","app":"nope","config":"msaomu2","tiles":4}`},
		{"unknown field", `{"app":"streamcluster","config":"msaomu2","tiles":4,"bogus":1}`},
		{"garbage", `}{`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400", resp.StatusCode)
			}
			var ae struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || ae.Error == "" {
				t.Errorf("400 body not an api error: %v", err)
			}
		})
	}
}

// The heartbeat stream must carry "running" events for a job that outlives
// the cadence.
func TestHeartbeats(t *testing.T) {
	_, _, c := newServer(t, service.Options{Workers: 1, Heartbeat: 10 * time.Millisecond})
	running := 0
	_, err := c.Submit(context.Background(), slowJob(24), func(ev service.JobEvent) {
		if ev.Event == "running" {
			running++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if running == 0 {
		t.Error("no running heartbeats observed")
	}
}

// Batch jobs are shed at half queue occupancy while interactive jobs still
// admit — the first rung of the overload ladder.
func TestBatchShedBeforeInteractive(t *testing.T) {
	_, hs, c := newServer(t, service.Options{Workers: 1, QueueLimit: 4})

	// Occupy half the queue (the batch limit) with slow interactive jobs,
	// then a batch job must bounce while an interactive one still admits.
	// Real simulations can drain early on a loaded machine; retry with
	// fresh tile counts until the window is observed.
	tiles := []int{32, 48, 64, 16, 24, 40}
	observed := false
	for attempt := 0; attempt+1 < len(tiles) && !observed; attempt += 2 {
		waitQueueEmpty(t, c)
		id1, code1, _ := asyncSubmit(t, hs.URL, slowJob(tiles[attempt]))
		id2, code2, _ := asyncSubmit(t, hs.URL, slowJob(tiles[attempt+1]))
		if code1 != http.StatusAccepted || code2 != http.StatusAccepted {
			t.Fatalf("setup submissions: %d, %d", code1, code2)
		}

		batch := slowJob(56)
		batch.Priority = service.PriorityBatch
		body, _ := json.Marshal(batch)
		resp, err := http.Post(hs.URL+"/v1/jobs?wait=0", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			observed = true
			if !strings.Contains(apiErr.Error, "batch") {
				t.Errorf("shed message %q does not name the batch limit", apiErr.Error)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("batch shed without Retry-After")
			}
			// The same occupancy still admits interactive work.
			id3, code3, _ := asyncSubmit(t, hs.URL, slowJob(8))
			if code3 != http.StatusAccepted {
				t.Errorf("interactive submission at batch-shed occupancy got %d, want 202", code3)
			} else {
				waitDone(t, c, id3)
			}
		case http.StatusAccepted:
			t.Logf("attempt %d: queue drained early, retrying", attempt/2)
			json.NewDecoder(resp.Body).Decode(&struct{}{})
		default:
			t.Fatalf("batch submission got %d, want 429 or 202", resp.StatusCode)
		}
		waitDone(t, c, id1)
		waitDone(t, c, id2)
	}
	if !observed {
		t.Fatal("never observed a batch shed at half occupancy")
	}
}

func TestUnknownPriorityRejected(t *testing.T) {
	_, hs, _ := newServer(t, service.Options{Workers: 1})
	req := quickJob()
	req.Priority = "urgent"
	body, _ := json.Marshal(req)
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown priority got %d, want 400", resp.StatusCode)
	}
}

// /healthz must publish the backpressure hints a load balancer steers by.
func TestHealthExposesBackpressureHints(t *testing.T) {
	_, _, c := newServer(t, service.Options{Workers: 1, QueueLimit: 8})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.BatchLimit != 4 {
		t.Errorf("batch_limit = %d, want 4 (half of 8)", h.BatchLimit)
	}
	if h.RetryAfterS < 1 || h.RetryAfterS > 30 {
		t.Errorf("retry_after_s = %d, want within [1, 30]", h.RetryAfterS)
	}
}
