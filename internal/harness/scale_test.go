package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestScalePointDeterministic pins the cycle-accuracy contract of the scale
// workload: the simulated end cycle and event count of one (tiles, shards)
// point are pure functions of the configuration, independent of host timing
// and worker interleaving. Wall-clock is the only nondeterministic column.
func TestScalePointDeterministic(t *testing.T) {
	for _, shards := range []int{1, 4} {
		end1, fired1, _, ok, err := scalePoint(64, shards)
		if err != nil || !ok {
			t.Fatalf("scalePoint(64, %d): ok=%v err=%v", shards, ok, err)
		}
		end2, fired2, _, _, err := scalePoint(64, shards)
		if err != nil {
			t.Fatal(err)
		}
		if end1 != end2 || fired1 != fired2 {
			t.Fatalf("shards=%d nondeterministic: end %d vs %d, fired %d vs %d",
				shards, end1, end2, fired1, fired2)
		}
	}
}

// TestScaleSweepBeyond64Tiles is the scaling proof the sharded kernel
// exists for: the machine must simulate past the former 64-tile bitvector
// cap. One 256-tile sweep point per shard count, including the serial
// kernel, must complete and tabulate, and ScaleSweep fails unless every
// sharded point ends at the serial end cycle after the same event count.
func TestScaleSweepBeyond64Tiles(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 256-tile machine at four shard counts")
	}
	tbl, err := ScaleSweep(Options{Tiles: []int{256}})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	tbl.Render(&b)
	out := b.String()
	for _, row := range []string{"256c/k1", "256c/k2", "256c/k4", "256c/k8"} {
		if !strings.Contains(out, row) {
			t.Fatalf("sweep output missing row %q:\n%s", row, out)
		}
	}
}

// TestScaleSweepSkipsIncompatibleShardCounts: a mesh whose height no shard
// count beyond 1 divides (16 tiles = 4x4 rows only splits 2 and 4 ways, so
// k8 must vanish, not fail).
func TestScaleSweepSkipsIncompatibleShardCounts(t *testing.T) {
	tbl, err := ScaleSweep(Options{Tiles: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	tbl.Render(&b)
	out := b.String()
	if !strings.Contains(out, "16c/k4") {
		t.Fatalf("missing compatible row 16c/k4:\n%s", out)
	}
	if strings.Contains(out, "16c/k8") {
		t.Fatalf("16c/k8 should be skipped (4x4 mesh has no 8-way row split):\n%s", out)
	}
}
