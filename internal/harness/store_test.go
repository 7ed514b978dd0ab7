package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"misar/internal/machine"
	"misar/internal/stats"
	"misar/internal/store"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

// quickTables renders a representative figure set (micros, speedups,
// coverage) through one runner and returns the concatenated bytes.
func quickTables(t *testing.T, r *Runner) string {
	t.Helper()
	o := QuickOptions()
	o.Apps = o.Apps[:2] // keep the warm/cold double run cheap
	var out strings.Builder
	for _, fig := range []func(Options) (*stats.Table, error){r.Fig5, r.Fig6, r.Fig7} {
		tb, err := fig(o)
		if err != nil {
			t.Fatal(err)
		}
		tb.Render(&out)
		out.WriteString("\n")
	}
	return out.String()
}

// TestStoreWarmMatchesCold is the acceptance criterion in miniature: a cold
// runner populates the store, a second runner (a "restarted process") must
// render byte-identical tables from the store alone, executing zero
// simulations.
func TestStoreWarmMatchesCold(t *testing.T) {
	dir := t.TempDir()

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(4)
	r1.SetStore(cold)
	coldTables := quickTables(t, r1)
	st1 := r1.Stats()
	if st1.Executed != st1.Unique || st1.StoreHits != 0 {
		t.Fatalf("cold run stats: %+v", st1)
	}
	if cold.Len() != st1.Unique {
		t.Fatalf("store holds %d records after %d unique runs", cold.Len(), st1.Unique)
	}

	warm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(4)
	r2.SetStore(warm)
	warmTables := quickTables(t, r2)
	st2 := r2.Stats()
	if st2.Executed != 0 {
		t.Errorf("warm run executed %d simulations, want 0", st2.Executed)
	}
	if st2.StoreHits != st2.Unique {
		t.Errorf("warm run: %d store hits for %d unique runs", st2.StoreHits, st2.Unique)
	}
	if warmTables != coldTables {
		t.Errorf("warm tables differ from cold:\ncold:\n%s\nwarm:\n%s", coldTables, warmTables)
	}
}

// A corrupted record must silently fall back to re-execution, and the
// tables must still come out identical.
func TestStoreCorruptRecordReexecutes(t *testing.T) {
	dir := t.TempDir()
	cold, _ := store.Open(dir)
	r1 := NewRunner(4)
	r1.SetStore(cold)
	coldTables := quickTables(t, r1)

	// Flip a byte in every record: the warm run must re-execute everything.
	n := 0
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".rec" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0x55
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		n++
		return nil
	})
	if n == 0 {
		t.Fatal("no records written by cold run")
	}

	warm, _ := store.Open(dir)
	r2 := NewRunner(4)
	r2.SetStore(warm)
	warmTables := quickTables(t, r2)
	st2 := r2.Stats()
	if st2.StoreHits != 0 || st2.Executed != st2.Unique {
		t.Errorf("corrupt store: stats %+v, want all re-executed", st2)
	}
	if s := warm.Stats(); s.Evictions == 0 {
		t.Errorf("no evictions recorded: %+v", s)
	}
	if warmTables != coldTables {
		t.Errorf("tables diverged after corruption fallback")
	}
}

// Metered runs round-trip their reports through the store: a warm metered
// run must produce the same report JSON with zero executions.
func TestStoreRoundTripsReports(t *testing.T) {
	dir := t.TempDir()
	run := func() ([]byte, RunnerStats) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(2)
		r.SetStore(st)
		r.EnableMetrics()
		o := QuickOptions()
		o.Tiles = []int{4}
		o.Apps = o.Apps[:1]
		if _, err := r.Fig6(o); err != nil {
			t.Fatal(err)
		}
		reps := r.Reports()
		if len(reps) == 0 {
			t.Fatal("no reports from metered run")
		}
		var blob []byte
		for _, rep := range reps {
			b, err := rep.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			blob = append(blob, b...)
		}
		return blob, r.Stats()
	}
	coldBlob, coldStats := run()
	warmBlob, warmStats := run()
	if warmStats.Executed != 0 {
		t.Errorf("warm metered run executed %d sims (cold %+v, warm %+v)",
			warmStats.Executed, coldStats, warmStats)
	}
	if string(coldBlob) != string(warmBlob) {
		t.Errorf("metered reports diverged between cold and warm runs")
	}
}

// The shard count is not part of a run's identity: a metered result
// simulated serially is a store hit for the same run submitted on two
// shards, and simulating it on two shards yields the same Result bytes.
func TestStoreSharesResultsAcrossShardCounts(t *testing.T) {
	app, _ := workload.ByName("fluidanimate")
	dir := t.TempDir()
	result := func(shards int, withStore bool) ([]byte, bool) {
		t.Helper()
		r := NewRunner(1)
		r.EnableMetrics()
		if withStore {
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			r.SetStore(st)
		}
		cfg := machine.MSAOMU(16, 2)
		cfg.Shards = shards
		run := r.App(app, cfg, syncrt.HWLib())
		res, err := run.Result()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b, run.FromStore()
	}
	serial, _ := result(1, true)
	warm, hit := result(2, true)
	if !hit {
		t.Fatal("a 2-shard submission missed the store record of the serial run")
	}
	if !bytes.Equal(warm, serial) {
		t.Fatalf("store hit returned different bytes:\n%s\nserial:\n%s", warm, serial)
	}
	for _, k := range []int{2, 4} {
		if sharded, _ := result(k, false); !bytes.Equal(sharded, serial) {
			t.Fatalf("simulated on %d shards:\n%s\nserial:\n%s", k, sharded, serial)
		}
	}
}
