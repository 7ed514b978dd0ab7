package harness

import (
	"bytes"
	"runtime"
	"testing"
)

// TestTMSweepGolden pins the three-way backend comparison at the quick
// scale: the rendered table must be byte-identical to
// testdata/golden_tm_8c.txt and independent of runner parallelism. The
// golden holds the table DESIGN.md §16 reads (MSA wins at low contention;
// MSA and TM tie within schedule noise above it), so a timing drift
// anywhere in the TM metadata path — clock traffic, lock-word sandwich,
// backoff — lands here as a byte diff.
func TestTMSweepGolden(t *testing.T) {
	render := func(workers int) []byte {
		tbl, err := NewRunner(workers).TMSweep(QuickOptions())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(runtime.NumCPU())
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("TM sweep depends on runner parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	checkGolden(t, "golden_tm_8c.txt", serial)
}
