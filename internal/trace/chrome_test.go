package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestWriteChromeValidJSON parses the envelope back: a single object with a
// traceEvents array whose entries all carry the mandatory fields.
func TestWriteChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	spans := []Span{
		{Trace: "t1", Proc: "served", Name: "job", Start: 1000, Dur: 50},
		{Trace: "t1", Proc: "sim", Name: "sim.run", Start: 1010, Dur: 30},
	}
	if err := WriteChromeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Events []map[string]any `json:"traceEvents"`
		Unit   string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.Unit)
	}
	if len(out.Events) != 4 { // two process_name records, two spans
		t.Fatalf("events = %d, want 4: %v", len(out.Events), out.Events)
	}
	for _, e := range out.Events {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Errorf("event missing %q: %v", key, e)
			}
		}
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeEvents(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Events []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Events) != 0 {
		t.Fatalf("empty timeline produced %d events", len(out.Events))
	}
}
