package cutty

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/agg"
	"repro/internal/engine"
	"repro/internal/window"
)

// cloneQuerySets covers every assigner kind, plus an engine whose two
// queries share one function store.
func cloneQuerySets() map[string][]engine.Query {
	return map[string][]engine.Query{
		"tumbling":       {{Window: window.Tumbling(10), Fn: agg.SumF64()}},
		"sliding":        {{Window: window.Sliding(20, 5), Fn: agg.SumF64()}},
		"session":        {{Window: window.Session(7), Fn: agg.MaxF64()}},
		"session-maxdur": {{Window: window.SessionWithMaxDuration(6, 25), Fn: agg.SumF64()}},
		"time-or-count":  {{Window: window.TimeOrCount(15, 7), Fn: agg.CountF64()}},
		"count":          {{Window: window.CountSliding(8, 4), Fn: agg.SumF64()}},
		"punctuation":    {{Window: window.Punctuation(func(v float64) bool { return v == 0 }), Fn: agg.SumF64()}},
		"delta":          {{Window: window.Delta(5), Fn: agg.MinF64()}},
		"shared": {
			{Window: window.Tumbling(10), Fn: agg.SumF64()},
			{Window: window.Sliding(20, 5), Fn: agg.SumF64()},
			{Window: window.Session(7), Fn: agg.CountF64()},
		},
	}
}

func snapshotBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Snapshot(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func feedElems(e *Engine, elems []window.Element) {
	for _, el := range elems {
		e.OnWatermark(el.Ts)
		e.OnElement(el.Ts, el.V)
	}
}

// TestCloneEquivalentToSnapshotRestore pins Clone to the checkpoint codec:
// a clone and a Snapshot→Restore copy of the same engine snapshot to the
// same bytes, emit the same results on the same suffix, and driving the
// clone leaves the original untouched.
func TestCloneEquivalentToSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for name, qs := range cloneQuerySets() {
		for trial := 0; trial < 8; trial++ {
			n := 100 + rng.Intn(200)
			cut := rng.Intn(n)
			elems := make([]window.Element, n)
			var ts int64
			for i := range elems {
				ts += rng.Int63n(4)
				elems[i] = window.Element{Ts: ts, V: float64(rng.Intn(10))}
			}

			orig := buildEngine(func(engine.Result) {}, qs, t)
			feedElems(orig, elems[:cut])
			if cut > 0 && rng.Intn(2) == 0 {
				orig.OnWatermark(elems[cut-1].Ts + rng.Int63n(8))
			}
			origSnap := snapshotBytes(t, orig)

			var cloned, restored []engine.Result
			c := orig.Clone(func(r engine.Result) { cloned = append(cloned, r) })
			r := buildEngine(func(res engine.Result) { restored = append(restored, res) }, qs, t)
			if err := r.Restore(gob.NewDecoder(bytes.NewReader(origSnap))); err != nil {
				t.Fatal(err)
			}
			if got := snapshotBytes(t, c); !bytes.Equal(got, origSnap) {
				t.Fatalf("%s trial %d: clone snapshots differently from the original", name, trial)
			}
			if got := snapshotBytes(t, r); !bytes.Equal(got, origSnap) {
				t.Fatalf("%s trial %d: restored copy snapshots differently from the original", name, trial)
			}
			if c.NextDeadline() != orig.NextDeadline() {
				t.Fatalf("%s trial %d: clone deadline %d, original %d", name, trial, c.NextDeadline(), orig.NextDeadline())
			}

			feedElems(c, elems[cut:])
			c.OnWatermark(math.MaxInt64)
			feedElems(r, elems[cut:])
			r.OnWatermark(math.MaxInt64)
			if !reflect.DeepEqual(cloned, restored) {
				t.Fatalf("%s trial %d: clone emitted %v, restored copy %v", name, trial, cloned, restored)
			}
			if !bytes.Equal(snapshotBytes(t, c), snapshotBytes(t, r)) {
				t.Fatalf("%s trial %d: clone and restored copy diverged", name, trial)
			}
			if !bytes.Equal(snapshotBytes(t, orig), origSnap) {
				t.Fatalf("%s trial %d: driving the clone changed the original", name, trial)
			}
		}
	}
}
