package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"misar/internal/service"
	"misar/internal/service/client"
)

// buildServed compiles the real misar-served binary from this package's
// directory, so the test exercises the process a user runs.
func buildServed(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "misar-served")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building misar-served: %v\n%s", err, out)
	}
	return bin
}

// freePort reserves a loopback port by binding and releasing it. The tiny
// race against other processes is acceptable in tests.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// Overload must answer fast — a 429 with an honest Retry-After — never hang
// the client into a timeout. This is the degradation ladder's bottom rung,
// exercised against a real process.
func TestOverloadDegradesToFast429(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary; skipped in -short")
	}
	bin := buildServed(t)
	port := freePort(t)
	url := fmt.Sprintf("http://127.0.0.1:%d", port)
	cmd := exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-store", filepath.Join(t.TempDir(), "store"),
		"-workers", "1",
		"-queue", "2",
		"-heartbeat", "50ms",
		"-log=false",
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.New(url).WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}

	// Fill the queue (workers 1, queue 2) with slow app simulations.
	submitAsync := func(req service.JobRequest) int {
		body, _ := json.Marshal(req)
		resp, err := http.Post(url+"/v1/jobs?wait=0", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		json.NewDecoder(resp.Body).Decode(&struct{}{})
		return resp.StatusCode
	}
	slow := func(tiles int) service.JobRequest {
		return service.JobRequest{App: "fluidanimate", Config: "msaomu2", Tiles: tiles}
	}
	if c1 := submitAsync(slow(64)); c1 != http.StatusAccepted {
		t.Fatalf("first fill got %d", c1)
	}
	if c2 := submitAsync(slow(48)); c2 != http.StatusAccepted {
		t.Fatalf("second fill got %d", c2)
	}

	// Flood with batch jobs: every rejection must land fast, as a 429 with
	// a Retry-After — not dangle until a client timeout.
	var rejected int
	for i := 0; i < 20; i++ {
		req := slow(32 + i)
		req.Priority = service.PriorityBatch
		body, _ := json.Marshal(req)
		start := time.Now()
		hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
		hreq, _ := http.NewRequestWithContext(hctx, http.MethodPost, url+"/v1/jobs?wait=0", bytes.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(hreq)
		elapsed := time.Since(start)
		hcancel()
		if err != nil {
			t.Fatalf("flood request %d timed out or failed after %v: %v", i, elapsed, err)
		}
		ra := resp.Header.Get("Retry-After")
		json.NewDecoder(resp.Body).Decode(&struct{}{})
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected++
			if elapsed > 2*time.Second {
				t.Errorf("flood request %d: 429 took %v, want fast rejection", i, elapsed)
			}
			if ra == "" {
				t.Errorf("flood request %d: 429 without Retry-After", i)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("overload never produced a 429; queue should have been saturated")
	}
	t.Logf("flood: %d/20 batch submissions shed with fast 429s", rejected)
}
