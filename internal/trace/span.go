package trace

import (
	"io"
	"sort"
)

// Span is one wall-clock serving-path interval: a named stretch of real time
// (client submit, queue wait, store lookup, a simulation phase) tagged with
// the trace ID minted at the request edge. Spans are the serving layer's
// counterpart of the simulator's flight-recorder timeline — flight event
// times are simulated cycles, Span times are microseconds of wall clock —
// and both render through the same Chrome trace-event writer so a whole
// served job opens in Perfetto as one timeline.
//
// Proc groups spans into Perfetto "process" lanes ("client", "served",
// "harness", "sim"); spans within one proc are expected to nest or follow
// each other in time, matching how the serving path actually executes.
type Span struct {
	Trace string            `json:"trace"`          // trace ID shared by the whole request
	Proc  string            `json:"proc"`           // timeline lane: client, served, harness, sim
	Name  string            `json:"name"`           // e.g. "queue.wait", "sim.run"
	Start int64             `json:"start_us"`       // wall clock, µs since the Unix epoch
	Dur   int64             `json:"dur_us"`         // duration in µs
	Args  map[string]string `json:"args,omitempty"` // extra key/values shown in the UI
}

// ChromeEventsFromSpans converts wall-clock spans into Chrome trace events:
// one process_name metadata record per distinct Proc (pid assigned in first-
// appearance order) and one complete ("X") event per span. Timestamps are
// rebased to the earliest span so the timeline starts at zero.
func ChromeEventsFromSpans(spans []Span) []ChromeEvent {
	if len(spans) == 0 {
		return nil
	}
	base := spans[0].Start
	for _, sp := range spans {
		if sp.Start < base {
			base = sp.Start
		}
	}
	pids := map[string]int{}
	out := make([]ChromeEvent, 0, len(spans)+4)
	for _, sp := range spans {
		pid, ok := pids[sp.Proc]
		if !ok {
			pid = len(pids)
			pids[sp.Proc] = pid
			out = append(out, ChromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]string{"name": sp.Proc},
			})
		}
		dur := uint64(sp.Dur)
		args := map[string]string{"trace": sp.Trace}
		for k, v := range sp.Args {
			args[k] = v
		}
		out = append(out, ChromeEvent{
			Name: sp.Name, Ph: "X", Ts: uint64(sp.Start - base), Dur: &dur,
			Pid: pid, Tid: 0, Args: args,
		})
	}
	return out
}

// SortSpans orders spans by start time (then proc, then name) so exports
// and golden tests are deterministic regardless of recording interleaving.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].Proc != spans[j].Proc {
			return spans[i].Proc < spans[j].Proc
		}
		return spans[i].Name < spans[j].Name
	})
}

// WriteChromeSpans writes wall-clock spans as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing alongside simulator timelines.
func WriteChromeSpans(w io.Writer, spans []Span) error {
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	SortSpans(sorted)
	return WriteChromeEvents(w, ChromeEventsFromSpans(sorted))
}
