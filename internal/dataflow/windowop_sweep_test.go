package dataflow

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/agg"
	"repro/internal/cutty"
	"repro/internal/engine"
	"repro/internal/state"
	"repro/internal/window"
)

// eagerWindowRef is the reference for WindowOp's deadline-gated sweep: the
// same buffering and release rules, one cutty engine per key, but every
// watermark advances every engine. Skipping engines that are not due must
// not change a single result or its position in the output.
type eagerWindowRef struct {
	queries []WindowQuery
	engines map[uint64]*cutty.Engine
	buf     map[uint64][]bufEntry
	wm      int64
	out     []Record
	curKey  uint64
}

func newEagerWindowRef(qs []WindowQuery) *eagerWindowRef {
	return &eagerWindowRef{
		queries: qs,
		engines: make(map[uint64]*cutty.Engine),
		buf:     make(map[uint64][]bufEntry),
		wm:      math.MinInt64,
	}
}

func (r *eagerWindowRef) newEngine() *cutty.Engine {
	e := cutty.New(func(res engine.Result) {
		r.out = append(r.out, Data(res.End, r.curKey, WindowResult{
			QueryID: res.QueryID, Start: res.Start, End: res.End, Value: res.Value, Count: res.Count,
		}))
	})
	for _, q := range r.queries {
		if _, err := e.AddQuery(engine.Query{Window: q.Spec, Fn: q.Fn}); err != nil {
			panic(err)
		}
	}
	return e
}

func (r *eagerWindowRef) record(ts int64, key uint64, v float64) {
	if ts <= r.wm {
		return // late
	}
	r.buf[key] = append(r.buf[key], bufEntry{Ts: ts, Val: v})
}

func sortedKeysOf[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func (r *eagerWindowRef) watermark(wm int64) {
	for _, key := range sortedKeysOf(r.buf) {
		entries := r.buf[key]
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Ts < entries[j].Ts })
		i := 0
		for ; i < len(entries) && entries[i].Ts <= wm; i++ {
		}
		if i == 0 {
			continue
		}
		e, ok := r.engines[key]
		if !ok {
			e = r.newEngine()
			r.engines[key] = e
		}
		r.curKey = key
		for _, en := range entries[:i] {
			e.OnWatermark(en.Ts)
			e.OnElement(en.Ts, en.Val)
		}
		if i == len(entries) {
			delete(r.buf, key)
		} else {
			r.buf[key] = append([]bufEntry(nil), entries[i:]...)
		}
	}
	for _, key := range sortedKeysOf(r.engines) {
		r.curKey = key
		r.engines[key].OnWatermark(wm)
	}
	r.wm = wm
}

// fork returns an independent copy of the reference (engines round-trip
// through their snapshot codec) whose output starts where r's is now.
func (r *eagerWindowRef) fork(t *testing.T) *eagerWindowRef {
	t.Helper()
	c := newEagerWindowRef(r.queries)
	c.wm = r.wm
	c.out = append([]Record(nil), r.out...)
	for k, entries := range r.buf {
		c.buf[k] = append([]bufEntry(nil), entries...)
	}
	for k, e := range r.engines {
		var b bytes.Buffer
		if err := e.Snapshot(gob.NewEncoder(&b)); err != nil {
			t.Fatal(err)
		}
		ne := c.newEngine()
		if err := ne.Restore(gob.NewDecoder(&b)); err != nil {
			t.Fatal(err)
		}
		c.engines[k] = ne
	}
	return c
}

// sweepStep is one input step: a data run (delivered through OnBatch or
// record by record) or a watermark.
type sweepStep struct {
	recs    []Record
	batched bool
	wm      int64
}

// genSweepSteps draws a random keyed stream with a random watermark
// cadence: several data runs per watermark or none, watermarks that repeat
// or jump, out-of-order records within a watermark interval and a few late
// ones. Values are small integers, so every aggregate is exact regardless of
// how a restored FlatFAT associates its combines.
func genSweepSteps(rng *rand.Rand, n int) []sweepStep {
	var steps []sweepStep
	wm := int64(0)
	for len(steps) < n {
		if rng.Intn(3) == 0 {
			wm += int64(rng.Intn(12))
			steps = append(steps, sweepStep{wm: wm})
			continue
		}
		run := make([]Record, 1+rng.Intn(8))
		for i := range run {
			ts := wm + 1 + int64(rng.Intn(15))
			if rng.Intn(20) == 0 {
				ts = wm - int64(rng.Intn(3)) // late
			}
			run[i] = Data(ts, uint64(rng.Intn(7)), float64(rng.Intn(10)))
		}
		steps = append(steps, sweepStep{recs: run, batched: rng.Intn(2) == 0})
	}
	return steps
}

func sweepQuerySets() map[string][]WindowQuery {
	return map[string][]WindowQuery{
		"tumbling":       {{Spec: window.Tumbling(10), Fn: agg.SumF64()}},
		"sliding":        {{Spec: window.Sliding(30, 10), Fn: agg.CountF64()}},
		"session":        {{Spec: window.Session(7), Fn: agg.SumF64()}},
		"session-maxdur": {{Spec: window.SessionWithMaxDuration(5, 20), Fn: agg.MaxF64()}},
		"time-or-count":  {{Spec: window.TimeOrCount(15, 4), Fn: agg.SumF64()}},
		"count":          {{Spec: window.CountSliding(5, 2), Fn: agg.SumF64()}},
		"punctuation":    {{Spec: window.Punctuation(func(v float64) bool { return v == 0 }), Fn: agg.SumF64()}},
		"delta":          {{Spec: window.Delta(5), Fn: agg.MinF64()}},
		// Two queries over one shared Sum store plus a third function.
		"shared": {
			{Spec: window.Tumbling(10), Fn: agg.SumF64()},
			{Spec: window.Sliding(30, 10), Fn: agg.SumF64()},
			{Spec: window.Session(7), Fn: agg.CountF64()},
		},
	}
}

// TestWindowOpGatedSweepMatchesEagerReference drives WindowOp and the eager
// reference through the same random streams, taking copy-on-write captures
// mid-stream: some are encoded after more input has been processed (the
// engines the sweep touches meanwhile are cloned), and some are restored
// into a fresh operator, rewinding both sides to the capture point as a
// recovery would. Output must match in content and order.
func TestWindowOpGatedSweepMatchesEagerReference(t *testing.T) {
	for name, qs := range sweepQuerySets() {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				steps := genSweepSteps(rng, 400)
				runGatedVsEager(t, rng, qs, steps)
			})
		}
	}
}

func runGatedVsEager(t *testing.T, rng *rand.Rand, qs []WindowQuery, steps []sweepStep) {
	op := newWindowOp(t, qs...)
	out := &collectList{}
	ref := newEagerWindowRef(qs)

	type pending struct {
		cap    *state.Captured
		at     int // first step not reflected in the capture
		outLen int
		ref    *eagerWindowRef
	}
	var pend *pending
	restores := 0

	for i := 0; i < len(steps); i++ {
		if pend == nil && rng.Intn(25) == 0 {
			pend = &pending{cap: op.KeyedState().Capture(), at: i, outLen: len(out.recs), ref: ref.fork(t)}
		}
		st := steps[i]
		if st.recs == nil {
			op.OnWatermark(st.wm, out)
			ref.watermark(st.wm)
		} else {
			if st.batched {
				op.OnBatch(append([]Record(nil), st.recs...), out)
			} else {
				for _, r := range st.recs {
					op.OnRecord(r, out)
				}
			}
			for _, r := range st.recs {
				ref.record(r.Ts, r.Key, r.Value.(float64))
			}
		}
		if pend != nil && rng.Intn(6) == 0 {
			groups, err := pend.cap.EncodeGroups()
			if err != nil {
				t.Fatal(err)
			}
			if restores < 3 && rng.Intn(2) == 0 {
				// Recover from the capture: both sides rewind to it.
				restores++
				op = NewWindowOp(qs...)().(*WindowOp)
				if err := op.Open(&OpContext{RestoreGroups: groups}); err != nil {
					t.Fatal(err)
				}
				out.recs = out.recs[:pend.outLen]
				ref = pend.ref
				i = pend.at - 1
			}
			pend = nil
		}
		if !sameRecords(out.recs, ref.out) {
			t.Fatalf("step %d: outputs diverge\n gated: %v\n eager: %v", i, out.recs, ref.out)
		}
	}
	if pend != nil {
		if _, err := pend.cap.EncodeGroups(); err != nil {
			t.Fatal(err)
		}
	}
	op.Finish(out)
	ref.watermark(math.MaxInt64)
	if !sameRecords(out.recs, ref.out) {
		t.Fatalf("after finish: outputs diverge\n gated: %v\n eager: %v", out.recs, ref.out)
	}
	if len(ref.out) == 0 {
		t.Fatal("stream produced no windows; the comparison is vacuous")
	}
}

func sameRecords(a, b []Record) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
