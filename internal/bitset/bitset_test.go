package bitset

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130) // three words, last partially used
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("fresh set not empty")
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Has(%d) false after Add", i)
		}
	}
	if s.Count() != 5 || s.Empty() {
		t.Fatalf("count = %d, want 5", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 4 {
		t.Fatal("Remove(64) did not stick")
	}
	s.Remove(64) // idempotent
	if s.Count() != 4 {
		t.Fatal("double Remove changed the count")
	}
	if s.Has(-1) || s.Has(1000) {
		t.Fatal("out-of-range Has must report absent")
	}
	if got := s.String(); got != "{0,63,127,129}" {
		t.Fatalf("String = %q", got)
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear left members behind")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(100)
	s.Add(7)
	c := s.Clone()
	s.Add(70)
	if c.Has(70) {
		t.Fatal("clone aliases the original")
	}
	if !c.Has(7) {
		t.Fatal("clone lost a member")
	}
	if Set(nil).Clone() != nil {
		t.Fatal("nil clone should stay nil")
	}
}

func TestNext(t *testing.T) {
	s := New(256)
	for _, i := range []int{5, 64, 200} {
		s.Add(i)
	}
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 200}, {200, 200}, {201, -1}, {-3, 5},
	}
	for _, c := range cases {
		if got := s.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if New(64).Next(0) != -1 {
		t.Error("Next on empty set should be -1")
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(1024)
	want := []int{0, 1, 63, 64, 511, 512, 1023}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("visited %d members, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d: got %v", i, got)
		}
	}
}

// TestAgainstReference fuzzes the set against a map oracle at capacities
// on both sides of every word boundary, up to the 1024-tile scale the
// sharded machine needs. At each checkpoint it compares Has, Count, ForEach
// and Next (from every start, including past the last word) and checks that
// a Clone is independent of its original in both directions.
func TestAgainstReference(t *testing.T) {
	for _, capacity := range []int{63, 64, 65, 127, 128, 1024} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			s := New(capacity)
			ref := map[int]bool{}
			for step := 1; step <= 20*capacity; step++ {
				i := rng.Intn(capacity)
				if rng.Intn(2) == 0 {
					s.Add(i)
					ref[i] = true
				} else {
					s.Remove(i)
					delete(ref, i)
				}
				if step%(2*capacity) == 0 {
					checkAgainst(t, s, ref, capacity)
					checkCloneIndependent(t, s, ref, capacity, rng.Intn(capacity))
				}
			}
		})
	}
}

func checkAgainst(t *testing.T, s Set, ref map[int]bool, capacity int) {
	t.Helper()
	if s.Count() != len(ref) {
		t.Fatalf("count %d, reference %d", s.Count(), len(ref))
	}
	for i := -1; i <= capacity; i++ {
		if s.Has(i) != ref[i] {
			t.Fatalf("membership of %d diverged", i)
		}
	}
	prev, n := -1, 0
	s.ForEach(func(i int) {
		n++
		if !ref[i] || i <= prev {
			t.Fatalf("ForEach visited %d after %d: not a member or out of order", i, prev)
		}
		prev = i
	})
	if n != len(ref) {
		t.Fatalf("ForEach visited %d, want %d", n, len(ref))
	}
	want := -1
	for from := 64*len(s) + 1; from >= -1; from-- {
		if ref[from] {
			want = from
		}
		if got := s.Next(from); got != want {
			t.Fatalf("Next(%d) = %d, want %d", from, got, want)
		}
	}
}

// checkCloneIndependent toggles member i in a clone and then in the
// original, checking that neither change shows through the other, and that
// the restored clone still matches the oracle.
func checkCloneIndependent(t *testing.T, s Set, ref map[int]bool, capacity, i int) {
	t.Helper()
	c := s.Clone()
	toggle := func(x Set) {
		if x.Has(i) {
			x.Remove(i)
		} else {
			x.Add(i)
		}
	}
	toggle(c)
	if s.Has(i) != ref[i] {
		t.Fatalf("changing %d in the clone changed the original", i)
	}
	toggle(c)
	toggle(s)
	if c.Has(i) != ref[i] {
		t.Fatalf("changing %d in the original changed the clone", i)
	}
	toggle(s)
	checkAgainst(t, c, ref, capacity)
}
