package fault

import (
	"strings"
	"testing"
)

// TestNilInjectorIsInert pins the hook contract every wired component relies
// on: all decision methods on a nil *Injector are safe no-ops.
func TestNilInjectorIsInert(t *testing.T) {
	var i *Injector
	if i.ForceSteer() || i.ForceCapacitySteer() || i.ForceEvict() {
		t.Error("nil injector forced a fault")
	}
	if i.AckDelay() != 0 || i.MsgDelay(0, 1) != 0 || i.CohDelay() != 0 {
		t.Error("nil injector injected a delay")
	}
	if c := i.Counts(); c.Total() != 0 {
		t.Errorf("nil injector has counts: %s", c.String())
	}
}

// TestDeterminism: two injectors built from the same plan make identical
// decisions for identical call sequences — the property that makes a failing
// chaos seed a reproducer.
func TestDeterminism(t *testing.T) {
	p := DefaultPlan(42)
	a, b := New(p), New(p)
	for n := 0; n < 10_000; n++ {
		switch n % 6 {
		case 0:
			if a.ForceSteer() != b.ForceSteer() {
				t.Fatalf("ForceSteer diverged at call %d", n)
			}
		case 1:
			if a.ForceCapacitySteer() != b.ForceCapacitySteer() {
				t.Fatalf("ForceCapacitySteer diverged at call %d", n)
			}
		case 2:
			if a.ForceEvict() != b.ForceEvict() {
				t.Fatalf("ForceEvict diverged at call %d", n)
			}
		case 3:
			if a.AckDelay() != b.AckDelay() {
				t.Fatalf("AckDelay diverged at call %d", n)
			}
		case 4:
			if a.MsgDelay(n%4, n%3) != b.MsgDelay(n%4, n%3) {
				t.Fatalf("MsgDelay diverged at call %d", n)
			}
		case 5:
			if a.CohDelay() != b.CohDelay() {
				t.Fatalf("CohDelay diverged at call %d", n)
			}
		}
	}
	if ca, cb := a.Counts(), b.Counts(); ca != cb {
		t.Fatalf("counts diverged: %s vs %s", ca.String(), cb.String())
	}
	if a.Counts().Total() == 0 {
		t.Fatal("default plan fired nothing in 10k calls")
	}
}

// TestDisabledSiteConsumesNoRandomness: a site with rate 0 must not advance
// the PRNG, so shrinking a plan (zeroing sites) leaves the remaining sites'
// decision streams untouched for the calls they see.
func TestDisabledSiteConsumesNoRandomness(t *testing.T) {
	full := Plan{Seed: 7, NoCRate: 4096, NoCMax: 64}
	a := New(full) // only NoC enabled
	b := New(full)
	var sa, sb []uint64
	for n := 0; n < 1000; n++ {
		// a interleaves calls to disabled sites; b does not.
		a.ForceSteer()
		a.AckDelay()
		a.CohDelay()
		sa = append(sa, uint64(a.MsgDelay(0, 1)))
		sb = append(sb, uint64(b.MsgDelay(0, 1)))
	}
	for n := range sa {
		if sa[n] != sb[n] {
			t.Fatalf("disabled sites perturbed the NoC stream at call %d: %d vs %d", n, sa[n], sb[n])
		}
	}
}

// TestSitesAndWithout pins the shrinker's plan algebra.
func TestSitesAndWithout(t *testing.T) {
	p := DefaultPlan(1)
	want := []string{"steer", "cap", "evict", "ack", "noc", "coh", "tmabort"}
	got := p.Sites()
	if len(got) != len(want) {
		t.Fatalf("DefaultPlan sites = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DefaultPlan sites = %v, want %v", got, want)
		}
	}
	for _, site := range want {
		q := p.Without(site)
		if len(q.Sites()) != len(want)-1 {
			t.Errorf("Without(%q) still has sites %v", site, q.Sites())
		}
		for _, s := range q.Sites() {
			if s == site {
				t.Errorf("Without(%q) did not remove the site", site)
			}
		}
	}
	q := p
	for _, site := range want {
		q = q.Without(site)
	}
	if q.Enabled() {
		t.Errorf("plan with all sites removed still enabled: %+v", q)
	}
	if (Plan{}).Enabled() {
		t.Error("zero plan reports enabled")
	}
}

// TestAlwaysFireRates: rate 65536/65536 fires on every call and the delay
// sites respect their maxima.
func TestAlwaysFireRates(t *testing.T) {
	i := New(Plan{Seed: 3, SteerRate: 65536, AckRate: 65536, AckMax: 10})
	for n := 0; n < 100; n++ {
		if !i.ForceSteer() {
			t.Fatal("rate 65536 did not fire")
		}
		d := i.AckDelay()
		if d < 1 || d > 10 {
			t.Fatalf("AckDelay %d outside [1, AckMax=10]", d)
		}
	}
	c := i.Counts()
	if c.Steers != 100 || c.AckDelays != 100 {
		t.Fatalf("counts: %s", c.String())
	}
	if c.DelayCycles == 0 {
		t.Fatal("delay cycles not accumulated")
	}
}

func TestCountsString(t *testing.T) {
	i := New(Plan{Seed: 1, SteerRate: 65536})
	i.ForceSteer()
	if s := i.Counts().String(); !strings.Contains(s, "steer") {
		t.Errorf("Counts.String() = %q, want a steer mention", s)
	}
}
