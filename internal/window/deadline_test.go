package window

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

func savedState(t *testing.T, a Assigner) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.(Checkpointable).SaveState(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeadlineIsExact checks the contract engines rely on to skip
// watermarks: at every point of a random stream, OnTime below Deadline
// closes nothing and leaves the assigner unchanged, OnTime at Deadline
// closes a window, and after OnTime(wm) the deadline lies beyond wm.
func TestDeadlineIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, spec := range checkpointSpecs() {
		for trial := 0; trial < 5; trial++ {
			a := spec.Factory()
			var rec Recorder
			var ts, pos int64
			check := func() {
				t.Helper()
				d := a.Deadline()
				below := d - 1
				if d == math.MaxInt64 {
					below = ts + 1_000_000
				}
				before := savedState(t, a)
				c := a.Clone()
				var r Recorder
				c.OnTime(below, &r)
				if len(r.Closes) != 0 {
					t.Fatalf("%s: OnTime(%d) below deadline %d closed %v", spec.Name, below, d, r.Closes)
				}
				if !bytes.Equal(savedState(t, c), before) {
					t.Fatalf("%s: OnTime(%d) below deadline %d changed the assigner", spec.Name, below, d)
				}
				if d != math.MaxInt64 {
					var r Recorder
					a.Clone().OnTime(d, &r)
					if len(r.Closes) == 0 {
						t.Fatalf("%s: OnTime at deadline %d closed nothing", spec.Name, d)
					}
				}
				if !bytes.Equal(savedState(t, a), before) {
					t.Fatalf("%s: driving a clone changed the original", spec.Name)
				}
			}
			for i := 0; i < 150; i++ {
				ts += rng.Int63n(6)
				if rng.Intn(4) == 0 {
					wm := ts - rng.Int63n(3)
					a.OnTime(wm, &rec)
					if d := a.Deadline(); d <= wm {
						t.Fatalf("%s: deadline %d not beyond watermark %d after OnTime", spec.Name, d, wm)
					}
					check()
				}
				a.OnElement(ts, pos, float64(rng.Intn(21)-10), &rec)
				pos++
				check()
			}
		}
	}
}

// TestCloneMatchesCheckpoint checks that a clone carries exactly the
// checkpointed state and then evolves on its own: the clone and the
// original, fed the same suffix, declare the same windows.
func TestCloneMatchesCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, spec := range checkpointSpecs() {
		elems := make([]Element, 200)
		var ts int64
		for i := range elems {
			ts += rng.Int63n(6)
			elems[i] = Element{Ts: ts, V: float64(rng.Intn(21) - 10)}
		}
		a := spec.Factory()
		var ra Recorder
		for i, e := range elems[:100] {
			a.OnTime(e.Ts, &ra)
			a.OnElement(e.Ts, int64(i), e.V, &ra)
		}
		c := a.Clone()
		if !bytes.Equal(savedState(t, c), savedState(t, a)) {
			t.Fatalf("%s: clone state differs from the original", spec.Name)
		}
		var wantRec, gotRec Recorder
		for i, e := range elems[100:] {
			a.OnTime(e.Ts, &wantRec)
			a.OnElement(e.Ts, int64(100+i), e.V, &wantRec)
			c.OnTime(e.Ts, &gotRec)
			c.OnElement(e.Ts, int64(100+i), e.V, &gotRec)
		}
		a.OnTime(math.MaxInt64, &wantRec)
		c.OnTime(math.MaxInt64, &gotRec)
		if len(gotRec.Closes) != len(wantRec.Closes) || len(gotRec.Opens) != len(wantRec.Opens) {
			t.Fatalf("%s: clone declared %d opens/%d closes, original %d/%d", spec.Name,
				len(gotRec.Opens), len(gotRec.Closes), len(wantRec.Opens), len(wantRec.Closes))
		}
		for i := range wantRec.Closes {
			if gotRec.Closes[i] != wantRec.Closes[i] {
				t.Fatalf("%s: close %d = %+v, want %+v", spec.Name, i, gotRec.Closes[i], wantRec.Closes[i])
			}
		}
	}
}
