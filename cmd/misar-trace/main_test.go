package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"misar/internal/isa"
	"misar/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

func runCmd(t *testing.T, stdin string, args ...string) (stdout string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	if code != 0 {
		t.Logf("stderr: %s", errb.String())
	}
	return out.String(), code
}

// TestGoldenTimeline pins the whole text timeline of one small run: a diff
// here means a simulated event moved, appeared or vanished, or the text
// format changed. Refresh with
// `go test ./cmd/misar-trace -run Golden -update-golden`.
func TestGoldenTimeline(t *testing.T) {
	got, code := runCmd(t, "", "-app", "swaptions", "-tiles", "4", "-last", "0")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	golden := filepath.Join("testdata", "swaptions_4c.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("timeline differs from %s.\ngot:\n%s", golden, got)
	}
}

// TestFromFlight renders a dump through the same text and Chrome paths as
// a live run, and accepts a v1 dump.
func TestFromFlight(t *testing.T) {
	evs := []obs.FlightEvent{
		{At: 10, Kind: obs.FIssue, Tile: 1, Core: 1, Addr: 0x40, Arg: uint32(isa.OpLock)},
		{At: 12, Kind: obs.FMsaReq, Tile: 0, Core: 1, Addr: 0x40, Arg: uint32(isa.OpLock)},
		{At: 12, Kind: obs.FMsaResp, Tile: 0, Core: 1, Addr: 0x40, Arg: uint32(isa.OpLock)<<8 | uint32(isa.Success)},
		{At: 14, Kind: obs.FDone, Tile: 1, Core: 1, Addr: 0x40, Arg: uint32(isa.OpLock)<<8 | uint32(isa.Success)},
	}
	blob, err := json.Marshal(obs.FlightDump{Schema: "misar-flight/v1", Job: "j-1", Total: 9, Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	text, code := runCmd(t, string(blob), "-from-flight", "-", "-last", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var want strings.Builder
	want.WriteString("# flight dump (unlabelled): job j-1, trace -, 4 of 9 total events retained\n")
	want.WriteString("#      cycle  tile    kind      core     addr        detail\n")
	want.WriteString("# ... 1 earlier events elided (use -last 0 for all)\n")
	for _, ev := range evs[1:] {
		want.WriteString(ev.String() + "\n")
	}
	if text != want.String() {
		t.Errorf("text:\n%s\nwant:\n%s", text, want.String())
	}

	chrome, code := runCmd(t, string(blob), "-from-flight", "-", "-format", "chrome")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var out struct {
		Events []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome), &out); err != nil {
		t.Fatalf("chrome output is not JSON: %v", err)
	}
	slices := 0
	for _, e := range out.Events {
		if e.Ph == "X" && e.Name == "LOCK" {
			slices++
		}
	}
	if slices != 1 {
		t.Errorf("want one LOCK slice from the issue/done pair, got %d", slices)
	}
}

func TestBadInputExitsTwo(t *testing.T) {
	for name, args := range map[string][]string{
		"app":    {"-app", "nope"},
		"addr":   {"-addr", "zzz"},
		"format": {"-format", "svg"},
		"schema": {"-from-flight", "-"},
		"flag":   {"-no-such-flag"},
	} {
		if _, code := runCmd(t, `{"schema":"misar-flight/v9","events":[]}`, args...); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
	}
}
