package streamline

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/dataflow"
)

// scriptedReader plays back a fixed sequence of reader events.
type scriptedReader struct {
	steps []struct {
		k  Keyed[float64]
		st ReadStatus
	}
	pos int
}

func (s *scriptedReader) add(k Keyed[float64], st ReadStatus) {
	s.steps = append(s.steps, struct {
		k  Keyed[float64]
		st ReadStatus
	}{k, st})
}

func (s *scriptedReader) Next() (Keyed[float64], ReadStatus) {
	if s.pos >= len(s.steps) {
		return Keyed[float64]{}, ReadEnd
	}
	step := s.steps[s.pos]
	s.pos++
	return step.k, step.st
}

func (s *scriptedReader) Snapshot() ([]byte, error) { return nil, nil }
func (s *scriptedReader) Restore([]byte) error      { return nil }

// A reader-steered watermark (the hybrid handoff) is computed from the
// reader's pre-extraction clock. With a WithTimestamps extractor installed,
// the lowering must still close out the extracted event time — and must
// never emit a regressing watermark on the wire.
func TestLoweredReaderWatermarkWithExtractor(t *testing.T) {
	r := &scriptedReader{}
	// Two data records whose extracted timestamps (the values) are far
	// ahead of the reader's own clock (the Ts fields, e.g. line indices).
	r.add(Keyed[float64]{Ts: 0, Value: 500}, ReadData)
	r.add(Keyed[float64]{Ts: 1, Value: 900}, ReadData)
	// The handoff watermark, stamped with the reader-clock max.
	r.add(Keyed[float64]{Ts: 1}, ReadWatermark)
	// An idle poll afterwards.
	r.add(Keyed[float64]{}, ReadIdle)

	l := &loweredReader[float64]{
		r:       r,
		ts:      func(v float64) int64 { return int64(v) },
		every:   1000,
		wmFloor: minInt64,
	}
	var wms []int64
	for {
		rec, ok := l.Next()
		if !ok {
			break
		}
		if rec.Kind == dataflow.KindWatermark {
			wms = append(wms, rec.Ts)
		} else if rec.Ts != int64(rec.Value.(float64)) {
			t.Fatalf("data record not re-stamped by the extractor: %+v", rec)
		}
	}
	if len(wms) != 2 {
		t.Fatalf("saw %d watermarks, want 2 (handoff + idle): %v", len(wms), wms)
	}
	if wms[0] != 900 {
		t.Fatalf("handoff watermark = %d, want 900 (the max extracted timestamp, not the reader clock)", wms[0])
	}
	if wms[1] < wms[0] {
		t.Fatalf("watermark regressed on the wire: %v", wms)
	}
}

// Without an extractor the reader's watermark passes through unchanged.
func TestLoweredReaderWatermarkPassThrough(t *testing.T) {
	r := &scriptedReader{}
	r.add(Keyed[float64]{Ts: 10, Value: 1}, ReadData)
	r.add(Keyed[float64]{Ts: 10}, ReadWatermark)
	l := &loweredReader[float64]{r: r, every: 1000, wmFloor: minInt64}
	var wms []int64
	for {
		rec, ok := l.Next()
		if !ok {
			break
		}
		if rec.Kind == dataflow.KindWatermark {
			wms = append(wms, rec.Ts)
		}
	}
	if len(wms) != 1 || wms[0] != 10 {
		t.Fatalf("watermarks = %v, want [10]", wms)
	}
}

// unorderedGen is a generator that declares itself unordered, like the
// split scans.
type unorderedGen struct{ *dataflow.GenSource }

func (unorderedGen) Unordered() bool { return true }

// loweredGen lowers a fresh generator of n records through a funcReader.
// Its timestamps wander (ts ≈ i, ±8), and it emits watermarks of its own
// every 10 records.
func loweredGen(n int64, ordered bool, ts func(float64) int64, every int64) *loweredReader[float64] {
	gen := &dataflow.GenSource{N: n, WatermarkEvery: 10, Lag: 5, Gen: func(i int64) dataflow.Record {
		return dataflow.Data(i+(i*7)%17-8, uint64(i%5), float64(i))
	}}
	var src dataflow.SourceFunc = gen
	if !ordered {
		src = unorderedGen{gen}
	}
	return lowerReader[float64](&funcReader[float64]{src: src}, ts, every, 3, newStageClock())
}

// The batched pass-through of an engine source must hand the runtime
// exactly the records Next would — data with extracted timestamps, the
// source's own watermarks converted, cadence watermarks where Next puts
// them — at any batch limit, and end in the same snapshot state.
func TestLoweredReaderNextBatchMatchesNext(t *testing.T) {
	const n = 500
	extract := func(v float64) int64 { return int64(v) * 2 }
	for _, ordered := range []bool{true, false} {
		for _, ts := range []func(float64) int64{nil, extract} {
			for _, every := range []int64{1, 7, 64} {
				for _, limit := range []int{1, 2, 5, 64, 256} {
					ref := loweredGen(n, ordered, ts, every)
					var want []dataflow.Record
					for {
						r, ok := ref.Next()
						if !ok {
							break
						}
						want = append(want, r)
					}
					l := loweredGen(n, ordered, ts, every)
					if l.batch == nil {
						t.Fatalf("a funcReader over a BatchSource must take the pass-through")
					}
					var got []dataflow.Record
					for {
						b := l.NextBatch(nil, limit)
						if len(b) > limit {
							t.Fatalf("NextBatch(%d) returned %d records", limit, len(b))
						}
						if len(b) == 0 {
							break
						}
						got = append(got, b...)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("ordered=%v extractor=%v every=%d limit=%d: batched records differ from Next's\n got %v\nwant %v",
							ordered, ts != nil, every, limit, got, want)
					}
					a, _ := ref.Snapshot()
					b, _ := l.Snapshot()
					if !bytes.Equal(a, b) {
						t.Fatalf("ordered=%v every=%d limit=%d: snapshot after a batched read differs", ordered, every, limit)
					}
				}
			}
		}
	}
}

// Readers that are not an engine BatchSource under a funcReader stay
// record-at-a-time: NextBatch returns one Next per call.
func TestLoweredReaderNextBatchOneRecordForOtherReaders(t *testing.T) {
	s := &scriptedReader{}
	for i := 0; i < 5; i++ {
		s.add(Keyed[float64]{Ts: int64(i), Value: float64(i)}, ReadData)
	}
	l := lowerReader[float64](s, nil, 2, 0, newStageClock())
	if l.batch != nil {
		t.Fatalf("a custom reader must not take the pass-through")
	}
	calls := 0
	for {
		b := l.NextBatch(nil, 64)
		if len(b) == 0 {
			break
		}
		calls++
		if len(b) != 1 {
			t.Fatalf("NextBatch returned %d records from a custom reader, want 1", len(b))
		}
	}
	if calls != 7 { // 5 records and 2 cadence watermarks
		t.Fatalf("%d NextBatch calls, want 7", calls)
	}
}
