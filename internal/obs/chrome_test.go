package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"misar/internal/isa"
	"misar/internal/trace"
)

func done(op isa.SyncOp, res isa.Result) uint32 { return uint32(op)<<8 | uint32(res) }

func sampleEvents() []FlightEvent {
	return []FlightEvent{
		{At: 100, Tile: 0, Kind: FIssue, Addr: 0x1000, Core: 3, Arg: uint32(isa.OpLock)},
		{At: 112, Tile: 0, Kind: FMsaReq, Addr: 0x1000, Core: 3, Arg: uint32(isa.OpLock)},
		{At: 115, Tile: 0, Kind: FAlloc, Addr: 0x1000, Core: -1, Arg: uint32(isa.TypeLock)},
		{At: 130, Tile: 0, Kind: FDone, Addr: 0x1000, Core: 3, Arg: done(isa.OpLock, isa.Success)},
		{At: 140, Tile: 1, Kind: FIssue, Addr: 0x2000, Core: 5, Arg: uint32(isa.OpBarrier)},
		// Core 5's issue never completes (e.g. silent local completion):
		// it must degrade to an instant, not vanish or pair wrongly.
	}
}

// TestChromeEventsStructure validates the trace-event mapping the issue
// specifies: metadata records, ph/ts/pid/tid on every event, and exact
// FIssue->FDone pairing into "X" duration events.
func TestChromeEventsStructure(t *testing.T) {
	evs := ChromeEvents(sampleEvents())

	var meta, instant, complete int
	for _, e := range evs {
		switch e.Ph {
		case "M":
			meta++
			if e.Name != "process_name" && e.Name != "thread_name" {
				t.Errorf("unexpected metadata record %q", e.Name)
			}
		case "i":
			instant++
			if e.S != "t" {
				t.Errorf("instant event %q missing thread scope: %+v", e.Name, e)
			}
		case "X":
			complete++
			if e.Dur == nil {
				t.Fatalf("X event without dur: %+v", e)
			}
		default:
			t.Errorf("unexpected ph %q: %+v", e.Ph, e)
		}
	}
	if meta == 0 {
		t.Error("no metadata records emitted")
	}
	if complete != 1 {
		t.Errorf("complete events = %d, want 1 (one issue/done pair)", complete)
	}

	// The paired LOCK: ts at the issue cycle, dur spanning to done,
	// pid = recording tile, tid = issuing core.
	var lock *trace.ChromeEvent
	for i := range evs {
		if evs[i].Ph == "X" {
			lock = &evs[i]
		}
	}
	if lock.Name != "LOCK" || lock.Ts != 100 || *lock.Dur != 30 || lock.Pid != 0 || lock.Tid != 3 {
		t.Errorf("paired event wrong: %+v", lock)
	}

	// The slice-internal alloc runs on the MSA pseudo-thread.
	found := false
	for _, e := range evs {
		if e.Ph == "i" && e.Args["kind"] == FAlloc.String() {
			found = true
			if e.Tid != msaTid {
				t.Errorf("slice event on tid %d, want msa pseudo-thread %d", e.Tid, msaTid)
			}
		}
	}
	if !found {
		t.Error("alloc instant missing")
	}

	// The unpaired BARRIER issue flushes as an instant at its issue time.
	found = false
	for _, e := range evs {
		if e.Ph == "i" && e.Name == "BARRIER" {
			found = true
			if e.Ts != 140 || e.Pid != 1 || e.Tid != 5 {
				t.Errorf("leftover issue flushed wrong: %+v", e)
			}
		}
	}
	if !found {
		t.Error("unpaired issue not flushed")
	}
}

func TestChromeIssueSupersededByNewIssue(t *testing.T) {
	evs := ChromeEvents([]FlightEvent{
		{At: 10, Tile: 0, Kind: FIssue, Core: 2, Arg: uint32(isa.OpLock)},
		{At: 20, Tile: 0, Kind: FIssue, Core: 2, Arg: uint32(isa.OpUnlock)},
		{At: 25, Tile: 0, Kind: FDone, Core: 2, Arg: done(isa.OpUnlock, isa.Success)},
	})
	var x, i int
	for _, e := range evs {
		switch {
		case e.Ph == "X":
			x++
			if e.Name != "UNLOCK" || e.Ts != 20 || *e.Dur != 5 {
				t.Errorf("pairing crossed instructions: %+v", e)
			}
		case e.Ph == "i":
			i++
			if e.Name != "LOCK" {
				t.Errorf("wrong instant: %+v", e)
			}
		}
	}
	if x != 1 || i != 1 {
		t.Fatalf("x=%d i=%d, want 1 and 1", x, i)
	}
}

// TestWriteChromeValidJSON parses the full output back: a single object
// with a traceEvents array whose entries all carry the mandatory fields.
func TestWriteChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sampleEvents()); err != nil {
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
	if len(out.Events) == 0 {
		t.Fatal("no events emitted")
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
	if err := WriteChrome(&buf, nil); err != nil {
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
