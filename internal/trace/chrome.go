// Package trace renders timelines in the Chrome Trace Event Format that
// chrome://tracing and Perfetto (ui.perfetto.dev) load. It owns the shared
// JSON envelope and the wall-clock Span type of the serving path; the
// simulated-event converter lives next to the flight recorder
// (obs.WriteChrome) and writes through the same envelope, so a served job's
// spans and a machine's protocol events open in the same UI.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeEvent is one entry of the traceEvents array.
type ChromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  *uint64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeEvents wraps converted events in the JSON-object envelope
// Perfetto expects.
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	err := enc.Encode(struct {
		Events          []ChromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return fmt.Errorf("trace: encode chrome trace: %w", err)
	}
	return nil
}
