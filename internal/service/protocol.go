package service

import (
	"misar/internal/fault"
	"misar/internal/harness"
	"misar/internal/trace"
)

// The wire schema of the job API ("misar-served/v1"). Requests and events
// are plain JSON; POST /v1/jobs responses are NDJSON streams of JobEvent.

// TraceHeader carries the request's trace ID. A client that sets it owns the
// ID (the server adopts it); otherwise the server mints one. The response
// always echoes the effective ID in the same header.
const TraceHeader = "X-Misar-Trace"

// TenantHeader identifies the submitting tenant for per-tenant admission
// quotas. A tenant may hold at most Options.TenantQuota unfinished jobs;
// submissions beyond that are refused with 429 + Retry-After even while the
// shared queue has room, so one chatty client cannot monopolize it.
// Requests without the header are anonymous and subject only to the shared
// queue limit.
const TenantHeader = "X-Misar-Tenant"

// JobRequest describes one simulation to run.
type JobRequest struct {
	// Kind selects the experiment type: "app" (default) runs a full
	// application, "micro" one Fig. 5 microbenchmark operation.
	Kind string `json:"kind,omitempty"`
	// App is the benchmark name (kind "app", see misar-sim -list) or the
	// microbenchmark operation (kind "micro", e.g. "LockAcquire").
	App string `json:"app"`
	// Config is a named machine variant ("msaomu2", "pthread", ...).
	Config string `json:"config"`
	// Tiles is the core count (1..64).
	Tiles int `json:"tiles"`
	// FaultSeed, when non-zero, arms the fault injector with
	// fault.DefaultPlan(FaultSeed) and the safety-invariant checker.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// FaultPlan overrides FaultSeed with an explicit plan.
	FaultPlan *fault.Plan `json:"fault_plan,omitempty"`
	// Invariants arms the safety-invariant checker without faults.
	Invariants bool `json:"invariants,omitempty"`
	// Metrics meters the run, attaching a full metrics report to the
	// result.
	Metrics bool `json:"metrics,omitempty"`
	// TimeoutMS bounds the job's wall-clock execution; 0 means no per-job
	// deadline beyond the server's configured default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Priority classes the job for admission: "interactive" (the default)
	// may fill the whole queue; "batch" is shed with a fast 429 once the
	// queue passes half occupancy, so background sweeps degrade before they
	// can starve interactive work (the overload ladder, DESIGN.md §11).
	Priority string `json:"priority,omitempty"`
}

// Admission priority classes.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// JobEvent is one line of a job's NDJSON stream.
type JobEvent struct {
	// Event is "accepted", "running" (heartbeat), "done", or "error".
	Event string `json:"event"`
	// Job is the server-assigned job ID.
	Job string `json:"job,omitempty"`
	// Label is the human-readable experiment label.
	Label string `json:"label,omitempty"`
	// ElapsedMS is wall-clock milliseconds since admission.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// FromStore marks a result replayed from the persistent store.
	FromStore bool `json:"from_store,omitempty"`
	// Error is the failure message on an "error" event.
	Error string `json:"error,omitempty"`
	// Result carries the simulation outcome on a "done" event.
	Result *harness.Result `json:"result,omitempty"`
	// Trace is the job's end-to-end trace ID (terminal events).
	Trace string `json:"trace,omitempty"`
	// Spans carries the server-side wall-clock spans of this job's trace on
	// the terminal event, so the client can merge them with its own spans
	// into one Chrome/Perfetto timeline.
	Spans []trace.Span `json:"spans,omitempty"`
}

// JobStatus is the response of GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // "running", "done", or "failed"
	Label string `json:"label"`
	// ElapsedMS is wall-clock milliseconds from admission to completion
	// (or to now, while running).
	ElapsedMS int64           `json:"elapsed_ms"`
	FromStore bool            `json:"from_store,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    *harness.Result `json:"result,omitempty"`
	Trace     string          `json:"trace,omitempty"`
}

// Health is the response of GET /healthz.
type Health struct {
	Status string `json:"status"` // "ok" or "draining"
	// Draining mirrors Status == "draining" as a boolean, so health probes
	// need no string comparison to gate traffic away.
	Draining   bool `json:"draining"`
	InFlight   int  `json:"in_flight"`
	QueueDepth int  `json:"queue_depth"` // occupied queue slots (== InFlight)
	QueueFree  int  `json:"queue_free"`  // slots before admission refuses
	QueueLimit int  `json:"queue_limit"`
	// BatchLimit is the occupancy beyond which batch-priority jobs are shed.
	BatchLimit int `json:"batch_limit"`
	// TenantQuota is the per-tenant unfinished-job cap (TenantHeader);
	// Tenants counts tenants currently holding at least one queue slot.
	TenantQuota int    `json:"tenant_quota"`
	Tenants     int    `json:"tenants"`
	Accepted    uint64 `json:"jobs_accepted_total"`
	UptimeMS    int64  `json:"uptime_ms"`
	// RetryAfterS is the backoff hint a refused client would receive right
	// now: queue depth over the recent drain rate, clamped to [1, 30]
	// seconds. Load balancers can read it to steer away before the 429.
	RetryAfterS int `json:"retry_after_s"`
}

// apiError is the JSON body of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}
