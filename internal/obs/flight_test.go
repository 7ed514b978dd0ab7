package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"misar/internal/isa"
	"misar/internal/sim"
)

func at(i int) sim.Time { return sim.Time(i) }

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Record(FlightEvent{At: at(i), Kind: FMsaReq, Tile: int16(i)})
	}
	if len(f.Events()) != 4 {
		t.Fatalf("retained = %d, want 4", len(f.Events()))
	}
	if f.Total() != 10 {
		t.Fatalf("Total = %d, want 10", f.Total())
	}
	evs := f.Events()
	for i, ev := range evs {
		if want := at(6 + i); ev.At != want {
			t.Errorf("event %d at cycle %d, want %d (oldest-first after wrap)", i, ev.At, want)
		}
	}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record(FlightEvent{At: 1})
	f.Record(FlightEvent{At: 2})
	evs := f.Events()
	if len(evs) != 2 || evs[0].At != 1 || evs[1].At != 2 {
		t.Fatalf("partial fill events = %+v", evs)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightEvent{}) // must not panic
	if len(f.Events()) != 0 || f.Total() != 0 || f.Events() != nil {
		t.Fatal("nil recorder must be inert")
	}
}

func TestFlightRecordZeroAllocs(t *testing.T) {
	f := NewFlightRecorder(64)
	ev := FlightEvent{At: 3, Kind: FMsaReq, Tile: 1, Core: 2, Addr: 0x40, Arg: uint32(isa.OpLock)}
	allocs := testing.AllocsPerRun(1000, func() { f.Record(ev) })
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", allocs)
	}
}

func TestFlightEventJSONRoundTrip(t *testing.T) {
	in := []FlightEvent{
		{At: 100, Kind: FMsaReq, Tile: 3, Core: 7, Addr: 0x1000040, Arg: uint32(isa.OpLock)},
		{At: 150, Kind: FMsaResp, Tile: 3, Core: 7, Addr: 0x1000040,
			Arg: uint32(isa.OpLock)<<8 | uint32(isa.Fail)},
		{At: 160, Kind: FSteer, Tile: 3, Core: -1, Addr: 0x1000040, Arg: uint32(isa.TypeLock)},
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []FlightEvent
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost events: %d -> %d", len(in), len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("event %d: %+v != %+v", i, in[i], out[i])
		}
	}
	if !strings.Contains(string(blob), `"kind":"msa-resp"`) {
		t.Errorf("marshalled form should name kinds: %s", blob)
	}
}

func TestFlightEventDetail(t *testing.T) {
	resp := FlightEvent{Kind: FMsaResp, Arg: uint32(isa.OpLock)<<8 | uint32(isa.Fail)}
	if d := resp.Detail(); !strings.Contains(d, "LOCK") || !strings.Contains(d, "FAIL") {
		t.Errorf("resp detail %q should carry op and result", d)
	}
	RegisterArgNames(FCoh, []string{"GetS", "GetX"})
	if d := (FlightEvent{Kind: FCoh, Arg: 1}).Detail(); d != "GetX" {
		t.Errorf("registered arg name not used: %q", d)
	}
	if d := (FlightEvent{Kind: FCoh, Arg: 99}).Detail(); d != "arg=99" {
		t.Errorf("out-of-range arg should render numerically, got %q", d)
	}
}

func TestFlightEventDetailCoreKinds(t *testing.T) {
	if d := (FlightEvent{Kind: FIssue, Arg: uint32(isa.OpBarrier)}).Detail(); d != "BARRIER" {
		t.Errorf("issue detail = %q, want the op", d)
	}
	done := FlightEvent{Kind: FDone, Arg: uint32(isa.OpUnlock)<<8 | uint32(isa.Success)}
	if d, want := done.Detail(), (FlightEvent{Kind: FMsaResp, Arg: done.Arg}).Detail(); d != want {
		t.Errorf("done detail %q should decode like msa-resp %q", d, want)
	}
	forced := FlightEvent{Kind: FSteer, Arg: uint32(isa.TypeLock) | SteerForced}
	if d := forced.Detail(); !strings.Contains(d, "lock") || !strings.Contains(d, "forced") {
		t.Errorf("forced steer detail %q should name the type and the fault", d)
	}
	if d := (FlightEvent{Kind: FSteer, Arg: uint32(isa.TypeLock)}).Detail(); strings.Contains(d, "forced") {
		t.Errorf("OMU steer detail %q must not claim a fault", d)
	}
}

func TestFilter(t *testing.T) {
	f := NewFlightRecorder(10)
	f.SetFilter(0x1000)
	f.Record(FlightEvent{Addr: 0x1000, At: 1})
	f.Record(FlightEvent{Addr: 0x2000, At: 2})
	f.Record(FlightEvent{Addr: 0, At: 3, Kind: FCtxSwitch})
	if len(f.Events()) != 1 {
		t.Fatalf("retained = %d, want 1", len(f.Events()))
	}
	if f.Filtered() != 2 {
		t.Fatalf("Filtered = %d, want 2", f.Filtered())
	}
	if f.Total() != 1 {
		t.Fatalf("Total = %d, want 1 (filtered events are not recorded)", f.Total())
	}
	if f.Events()[0].At != 1 {
		t.Fatalf("wrong event kept: %v", f.Events())
	}
}

func TestFilterAddrZero(t *testing.T) {
	// Address 0 is a legal filter target under the explicit filterSet flag
	// (a zero-sentinel convention would conflate it with "no filter").
	f := NewFlightRecorder(10)
	f.SetFilter(0)
	f.Record(FlightEvent{Addr: 0, Kind: FCtxSwitch})
	f.Record(FlightEvent{Addr: 0x2000})
	if len(f.Events()) != 1 || f.Filtered() != 1 {
		t.Fatalf("retained = %d, Filtered = %d", len(f.Events()), f.Filtered())
	}
}

func TestNoFilterRecordsEverything(t *testing.T) {
	f := NewFlightRecorder(10)
	f.Record(FlightEvent{Addr: 0x1000})
	f.Record(FlightEvent{Addr: 0})
	if len(f.Events()) != 2 || f.Filtered() != 0 {
		t.Fatalf("retained = %d, Filtered = %d", len(f.Events()), f.Filtered())
	}
}

func TestFlightRecorderResize(t *testing.T) {
	f := NewFlightRecorder(4)
	f.SetFilter(0x40)
	f.Record(FlightEvent{At: 1, Addr: 0x40})
	f.Resize(8) // discards the retained event, keeps the filter and the count
	if len(f.Events()) != 0 || f.Total() != 1 {
		t.Fatalf("after resize: %d retained, Total %d", len(f.Events()), f.Total())
	}
	for i := 0; i < 10; i++ {
		f.Record(FlightEvent{At: at(i), Addr: 0x40})
	}
	f.Record(FlightEvent{At: 99, Addr: 0x80})
	evs := f.Events()
	if len(evs) != 8 || evs[0].At != 2 || evs[7].At != 9 || f.Filtered() != 1 {
		t.Fatalf("resized ring: %+v, Filtered %d", evs, f.Filtered())
	}
	f.Resize(0) // capacity < 1 clamps to the default ring
	if cap(f.ring) != DefaultFlightCapacity {
		t.Fatalf("Resize(0) capacity = %d, want %d", cap(f.ring), DefaultFlightCapacity)
	}
}

func TestFlightDumpSnapshot(t *testing.T) {
	f := NewFlightRecorder(2)
	for i := 0; i < 5; i++ {
		f.Record(FlightEvent{At: at(i)})
	}
	d := f.Snapshot()
	if d.Schema != FlightDumpSchema || d.Total != 5 || len(d.Events) != 2 {
		t.Fatalf("snapshot = %+v", d)
	}
}

// TestReadFlightDumpV1 decodes a literal misar-flight/v1 dump: v2 only added
// kinds and a field, so a v1 dump decodes through the same path.
func TestReadFlightDumpV1(t *testing.T) {
	const v1 = `{"schema":"misar-flight/v1","job":"j-00000001","label":"x","total":9,"events":[
		{"at":100,"kind":"msa-req","tile":3,"core":7,"addr":4096,"arg":1,"detail":"LOCK"},
		{"at":120,"kind":"grant","tile":3,"core":7,"addr":4096}]}`
	d, err := ReadFlightDump(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Total != 9 || d.Job != "j-00000001" || len(d.Events) != 2 {
		t.Fatalf("decoded %+v", d)
	}
	want := FlightEvent{At: 100, Kind: FMsaReq, Tile: 3, Core: 7, Addr: 0x1000, Arg: 1}
	if d.Events[0] != want || d.Events[1].Kind != FGrant {
		t.Fatalf("events = %+v", d.Events)
	}
	if _, err := ReadFlightDump(strings.NewReader(`{"schema":"misar-flight/v9","events":[]}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

func TestReadFlightDumpRoundTrip(t *testing.T) {
	f := NewFlightRecorder(4)
	f.SetFilter(0x40)
	f.Record(FlightEvent{At: 1, Kind: FIssue, Addr: 0x40, Arg: uint32(isa.OpLock)})
	f.Record(FlightEvent{At: 2, Kind: FCtxSwitch})
	blob, err := json.Marshal(f.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	d, err := ReadFlightDump(strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema != FlightDumpSchema || d.Filtered != 1 || len(d.Events) != 1 || d.Events[0].Kind != FIssue {
		t.Fatalf("round trip = %+v", d)
	}
}
