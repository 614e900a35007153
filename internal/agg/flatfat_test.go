package agg

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sumTree(cap int) *FlatFAT[int] {
	return NewFlatFAT(0, func(a, b int) int { return a + b }, cap)
}

func TestFlatFATEmpty(t *testing.T) {
	tr := sumTree(4)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.Aggregate(); got != 0 {
		t.Fatalf("empty aggregate = %d", got)
	}
	if got := tr.Range(0, 0); got != 0 {
		t.Fatalf("empty range = %d", got)
	}
}

func TestFlatFATAppendAggregate(t *testing.T) {
	tr := sumTree(4)
	total := 0
	for i := 1; i <= 100; i++ {
		tr.Append(i)
		total += i
		if got := tr.Aggregate(); got != total {
			t.Fatalf("after %d appends aggregate = %d, want %d", i, got, total)
		}
	}
}

func TestFlatFATEvict(t *testing.T) {
	tr := sumTree(2)
	for i := 1; i <= 10; i++ {
		tr.Append(i)
	}
	for i := 1; i <= 9; i++ {
		tr.EvictFront()
		want := 0
		for j := i + 1; j <= 10; j++ {
			want += j
		}
		if got := tr.Aggregate(); got != want {
			t.Fatalf("after evicting %d: aggregate = %d, want %d", i, got, want)
		}
	}
}

func TestFlatFATRingWraps(t *testing.T) {
	tr := sumTree(4) // capacity stays 4 if we keep size <= 4
	// Fill, evict, append repeatedly so front walks around the ring.
	tr.Append(1)
	tr.Append(2)
	tr.Append(3)
	tr.Append(4)
	for i := 5; i < 40; i++ {
		tr.EvictFront()
		tr.Append(i)
		want := (i - 2) + (i - 1) + i + (i - 3)
		if got := tr.Aggregate(); got != want {
			t.Fatalf("i=%d aggregate=%d want %d", i, got, want)
		}
	}
}

func TestFlatFATUpdateBack(t *testing.T) {
	tr := sumTree(4)
	tr.Append(5)
	tr.Append(7)
	tr.UpdateBack(9)
	if got := tr.Aggregate(); got != 14 {
		t.Fatalf("aggregate = %d, want 14", got)
	}
	if got := tr.Back(); got != 9 {
		t.Fatalf("Back = %d, want 9", got)
	}
	if got := tr.Front(); got != 5 {
		t.Fatalf("Front = %d, want 5", got)
	}
}

func TestFlatFATPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"UpdateBack": func() { sumTree(2).UpdateBack(1) },
		"Back":       func() { sumTree(2).Back() },
		"Front":      func() { sumTree(2).Front() },
		"EvictFront": func() { sumTree(2).EvictFront() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty tree should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFlatFATRangeClamping(t *testing.T) {
	tr := sumTree(4)
	for i := 1; i <= 5; i++ {
		tr.Append(i)
	}
	if got := tr.Range(-3, 100); got != 15 {
		t.Fatalf("clamped range = %d, want 15", got)
	}
	if got := tr.Range(3, 2); got != 0 {
		t.Fatalf("inverted range = %d, want 0", got)
	}
}

// Property: FlatFAT range queries match the naive fold for random operation
// sequences, including growth and ring wrap-around, using a NON-commutative
// combine (string concatenation) to verify order preservation.
func TestFlatFATMatchesNaiveNonCommutative(t *testing.T) {
	concat := func(a, b string) string { return a + b }
	f := func(ops []uint8, seed int64) bool {
		tr := NewFlatFAT("", concat, 2)
		na := NewNaive("", concat)
		rng := rand.New(rand.NewSource(seed))
		next := 'a'
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // append (biased so the window grows)
				s := string(rune('a' + (next-'a')%26))
				next++
				tr.Append(s)
				na.Append(s)
			case 2:
				if tr.Len() > 0 {
					tr.EvictFront()
					na.EvictFront()
				}
			}
			if tr.Len() != na.Len() {
				return false
			}
			if tr.Aggregate() != na.Aggregate() {
				return false
			}
			if tr.Len() > 0 {
				i := rng.Intn(tr.Len())
				j := i + rng.Intn(tr.Len()-i) + 1
				if tr.Range(i, j) != na.Range(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: FlatFAT over Acc partials matches a naive fold for all standard
// float64 functions.
func TestFlatFATMatchesNaiveAllFns(t *testing.T) {
	for _, name := range allStdF64 {
		fn := StdFnF64(name)
		f := func(xs []float64) bool {
			for i, v := range xs {
				if v != v || v > 1e100 || v < -1e100 {
					xs[i] = float64(i)
				}
			}
			tr := NewFlatFAT(fn.Identity, fn.Combine, 2)
			na := NewNaive(fn.Identity, fn.Combine)
			for _, v := range xs {
				tr.Append(fn.Lift(v))
				na.Append(fn.Lift(v))
			}
			return fn.Lower(tr.Aggregate()) == fn.Lower(na.Aggregate())
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFlatFATGrowthPreservesOrder(t *testing.T) {
	concat := func(a, b string) string { return a + b }
	tr := NewFlatFAT("", concat, 2)
	var want strings.Builder
	for i := 0; i < 100; i++ {
		s := string(rune('a' + i%26))
		tr.Append(s)
		want.WriteString(s)
	}
	if got := tr.Aggregate(); got != want.String() {
		t.Fatalf("aggregate order broken after growth:\n got %q\nwant %q", got, want.String())
	}
}

// TestFlatFATClone checks that a clone answers every range like the
// original, including across a wrapped ring, and that the two evolve
// independently afterwards.
func TestFlatFATClone(t *testing.T) {
	concat := func(a, b string) string { return a + b }
	tr := NewFlatFAT("", concat, 4)
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		tr.Append(s)
	}
	tr.EvictFront()
	tr.EvictFront()
	tr.Append("f") // front has moved, so the occupied leaves wrap
	c := tr.Clone()
	for i := 0; i <= tr.Len(); i++ {
		for j := i; j <= tr.Len(); j++ {
			if got, want := c.Range(i, j), tr.Range(i, j); got != want {
				t.Fatalf("clone Range(%d,%d) = %q, want %q", i, j, got, want)
			}
		}
	}
	c.UpdateBack("F")
	c.EvictFront()
	for i := 0; i < 20; i++ {
		c.Append("x") // forces growth of the clone only
	}
	if got := tr.Aggregate(); got != "cdef" {
		t.Fatalf("original aggregate after mutating the clone = %q, want %q", got, "cdef")
	}
	tr.Append("g")
	if got, want := c.Aggregate(), "deF"+strings.Repeat("x", 20); got != want {
		t.Fatalf("clone aggregate after mutating the original = %q, want %q", got, want)
	}
}
