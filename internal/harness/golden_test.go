package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"misar/internal/stats"
)

// goldenOptions is the sweep pinned by testdata/golden_figs_16_64c.txt: every
// headline figure at both evaluation scales with the four fastest apps.
func goldenOptions() Options {
	return Options{
		Tiles: []int{16, 64},
		Apps:  []string{"radiosity", "ocean-nc", "fluidanimate", "streamcluster"},
	}
}

// renderFigs renders Fig. 5–9 through one Runner in figure order, exactly as
// cmd/misar-fig does.
func renderFigs(t *testing.T, r *Runner, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, fig := range []func(Options) (*stats.Table, error){r.Fig5, r.Fig6, r.Fig7, r.Fig8, r.Fig9} {
		tbl, err := fig(o)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Render(&buf)
	}
	return buf.Bytes()
}

// updateGolden rewrites the figure and TM goldens from the current kernel:
// `go test ./internal/harness -run 'Golden' -update-golden`. Only for a
// declared model change.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// checkGolden compares got against testdata/name, or rewrites the file
// under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenFiguresMatchSeedKernel pins the simulated timing of the whole
// model: the rendered Fig. 5–9 tables at 16 and 64 tiles must be
// byte-identical to testdata/golden_figs_16_64c.txt. Any timing drift —
// heap ordering, pool recycling, the event structure of the NoC walk, a
// protocol latency — shows up here as a byte diff. The golden was last
// regenerated when both kernels adopted the canonical same-cycle event key
// (DESIGN.md §14); it holds for every shard count, which
// TestGoldenFiguresMatchSharded spot-checks on the contended rows.
func TestGoldenFiguresMatchSeedKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("renders ten full figure sweeps (~20s)")
	}
	checkGolden(t, "golden_figs_16_64c.txt", renderFigs(t, NewRunner(runtime.NumCPU()), goldenOptions()))
}

// TestGoldenFiguresMatchSharded: the sharded kernel orders events by the
// same key as the serial one, so a sharded run is the serial run. Fig. 5
// holds the races the order decides (lock handoff, broadcast storms); at 16
// tiles on 2 and 4 shards its rows must equal the 16c rows of the serial
// golden. CI diffs the full Fig. 5 at 16 and 64 tiles across shard counts.
func TestGoldenFiguresMatchSharded(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_figs_16_64c.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := rowsAt(string(golden[:bytes.Index(golden, []byte("\nFig6"))]), "/16c")
	if len(want) == 0 {
		t.Fatal("golden has no Fig5 16c rows")
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := NewRunner(runtime.NumCPU())
			r.SetConfigTransform(ShardTransform(shards))
			tbl, err := r.Fig5(Options{Tiles: []int{16}})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			tbl.Render(&buf)
			if got := rowsAt(buf.String(), "/16c"); !reflect.DeepEqual(got, want) {
				t.Fatalf("Fig5 16c on %d shards:\n%q\nserial golden:\n%q", shards, got, want)
			}
		})
	}
}

// rowsAt returns the whitespace-split cells of every table row whose label
// ends in suffix; column widths depend on the other rows, cells do not.
func rowsAt(table, suffix string) [][]string {
	var rows [][]string
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasSuffix(f[0], suffix) {
			rows = append(rows, f)
		}
	}
	return rows
}
