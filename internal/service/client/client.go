// Package client is a small typed client for the misar-served job API.
// It submits jobs, follows their NDJSON progress streams, and decodes the
// final result — the plumbing behind `misar-sim -remote`.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"misar/internal/obs"
	"misar/internal/service"
)

// Client talks to one misar-served instance.
type Client struct {
	base string
	http *http.Client
}

// New builds a client for addr ("host:port" or a full http:// URL).
func New(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base: strings.TrimRight(addr, "/"),
		// No overall timeout: job streams are long-lived by design; use the
		// submission context to bound a call.
		http: &http.Client{},
	}
}

// decodeError turns a non-2xx response into an error, preserving the
// server's message and the status code.
func decodeError(resp *http.Response) error {
	ra := resp.Header.Get("Retry-After")
	var ae struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
		return &APIError{Status: resp.StatusCode, Message: ae.Error, RetryAfter: ra}
	}
	return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body)), RetryAfter: ra}
}

// APIError is a non-2xx response from the server. A 429 (queue full)
// carries the server's Retry-After, in whole seconds, as the raw header.
type APIError struct {
	Status     int
	Message    string
	RetryAfter string // the raw Retry-After header, when present
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %d %s", e.Status, e.Message)
}

// JobError is a job that ran and failed ("error" terminal event). The
// simulator is deterministic, so resubmitting the same job reproduces the
// same failure.
type JobError struct {
	Job     string
	Message string
}

func (e *JobError) Error() string {
	return fmt.Sprintf("job %s failed: %s", e.Job, e.Message)
}

// Submit posts one job and follows its NDJSON stream until the terminal
// event. onEvent (may be nil) observes every event, heartbeats included.
// The returned event is the terminal "done"; an "error" event becomes a Go
// error.
//
// Tracing: when ctx carries a trace ID (obs.WithTrace) it is sent in the
// X-Misar-Trace header and the server adopts it, so client-side spans
// (recorded when ctx also carries an obs.Recorder) and the server's spans
// share one timeline. Without one, the server mints an ID; either way the
// effective ID is on the terminal event's Trace field.
func (c *Client) Submit(ctx context.Context, req service.JobRequest, onEvent func(service.JobEvent)) (*service.JobEvent, error) {
	sp := obs.StartSpan(ctx, "client", "client.submit")
	sp.SetArg("app", req.App)
	sp.SetArg("config", req.Config)
	defer sp.End()
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := obs.TraceIDOf(ctx); id != "" {
		hreq.Header.Set(service.TraceHeader, id)
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20) // metered 64c reports are large
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev service.JobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("client: bad event line: %w", err)
		}
		if onEvent != nil {
			onEvent(ev)
		}
		switch ev.Event {
		case "done":
			return &ev, nil
		case "error":
			return nil, &JobError{Job: ev.Job, Message: ev.Error}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: stream ended early: %w", err)
	}
	return nil, fmt.Errorf("client: stream ended without a terminal event")
}

// Status polls one job.
func (c *Client) Status(ctx context.Context, id string) (*service.JobStatus, error) {
	var st service.JobStatus
	if err := c.getJSON(ctx, "/v1/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel requests cancellation of one job and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (*service.JobStatus, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (*service.Health, error) {
	var h service.Health
	if err := c.getJSON(ctx, "/healthz", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// WaitHealthy polls /healthz until the server answers or ctx expires —
// startup convenience for scripts and tests.
func (c *Client) WaitHealthy(ctx context.Context) error {
	for {
		if _, err := c.Health(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("client: server never became healthy: %w", ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
