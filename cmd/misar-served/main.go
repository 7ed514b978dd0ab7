// Command misar-served runs the simulation job server: an HTTP/JSON service
// that admits simulation requests through a bounded queue, deduplicates
// identical in-flight jobs, serves warm results from a content-addressed
// persistent store, and streams progress as NDJSON.
//
// Usage:
//
//	misar-served -addr :8091 -store misar-store -workers 8
//	curl -s localhost:8091/healthz
//	curl -s -X POST localhost:8091/v1/jobs \
//	    -d '{"app":"streamcluster","config":"msaomu2","tiles":16}'
//
// Observability (DESIGN.md §13): requests are traced end to end via the
// X-Misar-Trace header (GET /v1/jobs/{id}/trace serves the spans as a
// Chrome trace), finished jobs expose their machine's flight-recorder
// ring at GET /v1/jobs/{id}/flight, /metrics exposes queue depth,
// simulations in flight and store hits, structured JSON logs go to stderr
// (-log), and /debug/pprof/ serves live profiles and runtime traces.
//
// Overload (DESIGN.md §11): admission has one rule, the -queue bound on
// unfinished jobs. A full queue answers 429 with Retry-After: 1.
//
// On SIGINT/SIGTERM the server drains: admission stops (503), accepted jobs
// finish and persist, then the process exits 0. A second signal — or an
// expired -drain-timeout — hard-cancels the remaining jobs and exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"misar/internal/service"
)

func main() {
	addr := flag.String("addr", ":8091", "listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "max admitted unfinished jobs (backpressure beyond)")
	storeDir := flag.String("store", "misar-store", "persistent result store directory (empty = memory only)")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "NDJSON progress heartbeat cadence")
	jobTimeout := flag.Duration("job-timeout", 0, "default per-job wall-clock cap (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Minute, "graceful drain deadline on SIGTERM")
	logReq := flag.Bool("log", true, "structured request/job logging (JSON lines on stderr, tagged with trace IDs)")
	flag.Parse()

	var logger *slog.Logger
	if *logReq {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	s, err := service.New(service.Options{
		Workers:        *workers,
		QueueLimit:     *queue,
		StoreDir:       *storeDir,
		Heartbeat:      *heartbeat,
		DefaultTimeout: *jobTimeout,
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "misar-served:", err)
		os.Exit(1)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	storeDesc := *storeDir
	if storeDesc == "" {
		storeDesc = "(memory only)"
	}
	fmt.Printf("misar-served: listening on %s (queue %d, store %s)\n", *addr, *queue, storeDesc)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "misar-served:", err)
		os.Exit(1)
	case got := <-sig:
		fmt.Printf("misar-served: %v, draining (deadline %v; signal again to abort)\n", got, *drainTimeout)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sig // second signal: abandon the drain
		cancel()
	}()
	drainErr := s.Drain(drainCtx)
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "misar-served:", drainErr)
		s.Close() // hard-cancel whatever is left
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "misar-served: shutdown:", err)
	}
	if drainErr != nil {
		os.Exit(1)
	}
	fmt.Println("misar-served: drained cleanly")
}
