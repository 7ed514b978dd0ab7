package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"misar/internal/obs"
	"misar/internal/service"
	"misar/internal/service/client"
	"misar/internal/workload"
)

const (
	serveStreamLen  = 800 // requests per cold pass, drawn with replacement
	serveClients    = 2   // closed-loop clients
	serveWorkers    = 2   // simulation workers per server
	serveWarmPasses = 3   // store-warm passes per round, each on a fresh server
)

var (
	serveConfigs = []string{"pthread", "msaomu2"}
	serveTiles   = []int{8, 16}
)

// serveJob is one request of the serve stream.
type serveJob struct {
	App    string
	Config string
	Tiles  int
}

func (j serveJob) String() string { return fmt.Sprintf("%s/%s/%dc", j.App, j.Config, j.Tiles) }

// newServeStream draws the serve workload's request stream from the seed:
// apps x {pthread, msaomu2} x {8, 16} tiles, with replacement.
func newServeStream(seed uint64) []serveJob {
	rng := rand.New(rand.NewPCG(seed, 0x5e77e))
	suite := workload.Suite()
	out := make([]serveJob, serveStreamLen)
	for i := range out {
		out[i] = serveJob{
			App:    suite[rng.IntN(len(suite))].Name,
			Config: serveConfigs[rng.IntN(len(serveConfigs))],
			Tiles:  serveTiles[rng.IntN(len(serveTiles))],
		}
	}
	return out
}

// distinct returns the stream's jobs in order of first occurrence.
func distinct(stream []serveJob) []serveJob {
	seen := map[serveJob]bool{}
	var out []serveJob
	for _, j := range stream {
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

// server is one job server on a loopback listener.
type server struct {
	svc  *service.Server
	http *httptest.Server
}

// startServer is the serve workload's set-up: service.New on the store
// directory plus a listening loopback HTTP server.
func startServer(dir string) (*server, time.Duration, error) {
	start := time.Now()
	svc, err := service.New(service.Options{Workers: serveWorkers, StoreDir: dir})
	if err != nil {
		return nil, 0, err
	}
	hs := httptest.NewServer(svc.Handler())
	return &server{svc: svc, http: hs}, time.Since(start), nil
}

// stop drains the server, then closes the listener and the service.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	_ = s.svc.Drain(ctx) // every reply has already arrived: nothing is left to drain
	cancel()
	s.http.Close()
	s.svc.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// reply is one request's outcome as the client saw it.
type reply struct {
	lat       time.Duration
	result    []byte // canonical JSON of the job's result
	fromStore bool
	err       error
}

// runPass sends jobs through serveClients closed-loop clients: each client
// submits its next job only after the previous one's result arrived.
func runPass(s *server, jobs []serveJob, tr *tracer, pass string) ([]reply, time.Duration) {
	c := client.New(s.http.URL)
	replies := make([]reply, len(jobs))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				ctx, id := tr.context(), ""
				if tr != nil {
					id = fmt.Sprintf("%s/%s/%d", tr.id, pass, i)
					ctx = obs.WithTrace(ctx, id)
				}
				j := jobs[i]
				sp := obs.StartSpan(ctx, "bench", "http.submit")
				t0 := time.Now()
				ev, err := c.Submit(ctx, service.JobRequest{App: j.App, Config: j.Config, Tiles: j.Tiles}, nil)
				rp := reply{lat: time.Since(t0), err: err}
				sp.End()
				if err == nil {
					rp.result, rp.err = json.Marshal(ev.Result)
					rp.fromStore = ev.FromStore
				}
				replies[i] = rp
				if tr != nil {
					mu.Lock()
					tr.obs.clientLat[id] = rp.lat
					if rejected(err) {
						tr.obs.rejects++
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

func rejected(err error) bool {
	var api *client.APIError
	return errors.As(err, &api) && api.Status == http.StatusTooManyRequests
}

// serveRound is one cold pass plus its store-warm passes.
type serveRound struct {
	coldWall, warmWall time.Duration
	cold, warm         []time.Duration // first-occurrence cold and all warm latencies
	coldRequests       int
	repeats            int
	digest             string
	attempted, failed  int
	errs               []error
}

func (rd *serveRound) fail(err error) {
	rd.failed++
	if len(rd.errs) < 5 {
		rd.errs = append(rd.errs, err)
	}
}

// runServeRound serves the stream cold on a fresh store, then replays its
// distinct jobs against fresh servers on the populated store. Every warm
// reply must be a store hit byte-identical to the cold reply; every
// repeated cold request must match its first occurrence.
func runServeRound(stream []serveJob, dir string, tr *tracer) serveRound {
	var rd serveRound
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	uniq := distinct(stream)
	rd.coldRequests, rd.repeats = len(stream), len(stream)-len(uniq)

	pass := func(name string, jobs []serveJob) ([]reply, time.Duration, bool) {
		srv, _, err := startServer(dir)
		if err != nil {
			rd.attempted += len(jobs)
			for range jobs {
				rd.fail(err)
			}
			return nil, 0, false
		}
		replies, wall := runPass(srv, jobs, tr, name)
		srv.stop()
		if tr != nil {
			tr.extra = append(tr.extra, srv.svc.Recorder().Spans()...)
			rs, ss := srv.svc.RunnerStats(), srv.svc.StoreStats()
			tr.obs.runner.Submitted += rs.Submitted
			tr.obs.runner.Unique += rs.Unique
			tr.obs.store.Hits += ss.Hits
			tr.obs.store.Misses += ss.Misses
			tr.obs.store.Puts += ss.Puts
		}
		rd.attempted += len(jobs)
		return replies, wall, true
	}

	coldReplies, wall, ok := pass("cold", stream)
	if !ok {
		return rd
	}
	rd.coldWall = wall
	first := map[serveJob][]byte{}
	for i, rp := range coldReplies {
		j := stream[i]
		if rp.err != nil {
			rd.fail(fmt.Errorf("cold %s: %w", j, rp.err))
			continue
		}
		if prev, seen := first[j]; seen {
			if !bytes.Equal(prev, rp.result) {
				rd.fail(fmt.Errorf("cold %s: repeated request returned a different result", j))
			}
			continue
		}
		first[j] = rp.result
		rd.cold = append(rd.cold, rp.lat)
	}
	d := newDigest()
	for _, j := range uniq {
		d.add(j.String(), first[j])
	}
	rd.digest = d.sum()

	for w := 0; w < serveWarmPasses; w++ {
		replies, wall, ok := pass(fmt.Sprintf("warm%d", w), uniq)
		if !ok {
			continue
		}
		rd.warmWall += wall
		for i, rp := range replies {
			j := uniq[i]
			switch {
			case rp.err != nil:
				rd.fail(fmt.Errorf("warm %s: %w", j, rp.err))
			case !rp.fromStore:
				rd.fail(fmt.Errorf("warm %s: not served from the store", j))
			case !bytes.Equal(rp.result, first[j]):
				rd.fail(fmt.Errorf("warm %s: reply differs from the cold reply", j))
			default:
				rd.warm = append(rd.warm, rp.lat)
			}
		}
	}
	return rd
}

// serveSession runs the serve workload for one seed; latencies are pooled
// over the untraced rounds.
type serveSession struct {
	stream      []serveJob
	dir         string
	cold, warm  []time.Duration
	coldReqs    int
	coldWall    time.Duration
	repeatShare float64
}

// setup times one server start (service.New + listen) on a fresh store.
func (s *serveSession) setup() (time.Duration, error) {
	os.RemoveAll(s.dir)
	defer os.RemoveAll(s.dir)
	srv, d, err := startServer(s.dir)
	if err != nil {
		return 0, err
	}
	srv.stop()
	return d, nil
}

func (s *serveSession) rep(tr *tracer) repResult {
	rd := runServeRound(s.stream, s.dir, tr)
	if tr == nil {
		s.cold = append(s.cold, rd.cold...)
		s.warm = append(s.warm, rd.warm...)
		s.coldReqs += rd.coldRequests
		s.coldWall += rd.coldWall
		s.repeatShare = float64(rd.repeats) / float64(rd.coldRequests)
	}
	return repResult{wall: rd.coldWall + rd.warmWall, digest: rd.digest, attempted: rd.attempted, failed: rd.failed, errs: rd.errs}
}

func (s *serveSession) metrics() (map[string]metric, []string) {
	cold, warm := ms(s.cold), ms(s.warm)
	cp, ct, _ := tail(cold)
	wp, wt, _ := tail(warm)
	return map[string]metric{
			"jobs_per_s":       {ratio(float64(s.coldReqs), s.coldWall.Seconds()), "1/s"},
			"job_cold_p50_ms":  {median(cold), "ms"},
			"job_cold_tail_ms": {ct, "ms"},
			"job_warm_p50_ms":  {median(warm), "ms"},
			"job_warm_tail_ms": {wt, "ms"},
			"repeat_share":     {s.repeatShare, "ratio"},
		}, []string{
			"wall_s is one round: the cold pass plus its store-warm passes",
			"jobs_per_s is cold-pass requests (repeats included) over cold-pass wall time",
			fmt.Sprintf("job_cold_tail_ms is p%g of %d cold first-occurrence samples", cp, len(cold)),
			fmt.Sprintf("job_warm_tail_ms is p%g of %d store-warm samples", wp, len(warm)),
		}
}
