package dataflow

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"math"
	"slices"

	"repro/internal/agg"
	"repro/internal/cutty"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/window"
)

// WindowQuery names a window aggregation declaratively so that the operator
// can be reconstructed on recovery (specs and functions live in the job
// definition; only mutable state is checkpointed).
type WindowQuery struct {
	Spec window.Spec
	Fn   *agg.FnF64
}

// WindowOp is the keyed window aggregation operator. It receives keyed
// float64 records (after a hash edge), restores event-time order with a
// watermark-driven reorder buffer (merging the per-upstream in-order streams
// re-introduces disorder), and runs one Cutty engine per key. Window results
// are emitted as records whose Value is a WindowResult and whose Ts is the
// window end.
//
// All mutable state — the per-key engines, the per-key reorder buffers and
// the per-group release watermark — lives in a state.KeyedState, so the
// operator snapshots per key group (asynchronously, behind a copy-on-write
// capture) and restores at any parallelism.
type WindowOp struct {
	Queries []WindowQuery

	out         Collector
	ks          *state.KeyedState
	engines     *state.MapCell[*cutty.Engine]
	buf         *state.MapCell[[]bufEntry]
	wm          *state.GroupCell[int64]
	curKey      uint64
	droppedLate int64
	droppedCtr  *metrics.Counter

	// minDue is a lower bound on every engine's NextDeadline: a watermark
	// below it fires no window anywhere, so OnWatermark skips the engine
	// sweep. It is derived state, never checkpointed; Open starts it at
	// math.MinInt64 (unknown), so the first watermark after Open or restore
	// sweeps every engine and recomputes it.
	minDue int64

	// Vectorized-run scratch (see OnBatch), reused across calls.
	kt     keyTable
	recIdx []int32    // per record: dense key index, -1 = skipped (non-float64)
	segLen []int32    // per dense key: element count in the run
	segOff []int32    // per dense key: gather cursor (segment end after fill)
	gather []bufEntry // run elements grouped by key, record order within a key
}

// bufEntry is one buffered, not-yet-released element of a key's reorder
// buffer (exported fields for gob).
type bufEntry struct {
	Ts  int64
	Val float64
}

var _ Operator = (*WindowOp)(nil)
var _ KeyedStateful = (*WindowOp)(nil)

// NewWindowOp returns an operator factory running the given queries.
func NewWindowOp(queries ...WindowQuery) OperatorFactory {
	return func() Operator { return &WindowOp{Queries: queries} }
}

func (w *WindowOp) newEngine() *cutty.Engine {
	e := cutty.New(w.emitResult)
	for _, q := range w.Queries {
		if _, err := e.AddQuery(engine.Query{Window: q.Spec, Fn: q.Fn}); err != nil {
			// Queries are validated at graph build; this is unreachable in a
			// validated job.
			panic(fmt.Sprintf("dataflow: window query rejected: %v", err))
		}
	}
	return e
}

// cloneEngine is the engines cell's copy-on-write clone, taken when
// GetMut reaches a key whose engine an in-flight capture still shares. It
// is a direct deep copy (cutty.Engine.Clone) rebound to this operator's
// emitter, never an encode/decode round trip, and it snapshots to the same
// bytes as the original. The gated sweep in OnWatermark calls GetMut only
// on engines with a due deadline, so a capture window clones at most the
// engines that fire or receive records while it lasts.
func (w *WindowOp) cloneEngine(e *cutty.Engine) *cutty.Engine {
	return e.Clone(w.emitResult)
}

func (w *WindowOp) emitResult(r engine.Result) {
	w.out.Collect(Data(r.End, w.curKey, WindowResult{
		QueryID: r.QueryID,
		Start:   r.Start,
		End:     r.End,
		Value:   r.Value,
		Count:   r.Count,
	}))
}

// Open implements Operator.
func (w *WindowOp) Open(ctx *OpContext) error {
	w.ks = ctx.NewKeyedState()
	w.engines = state.RegisterMap(w.ks, "engines", state.Codec[*cutty.Engine]{
		Encode: func(enc *gob.Encoder, e *cutty.Engine) error { return e.Snapshot(enc) },
		Decode: func(dec *gob.Decoder) (*cutty.Engine, error) {
			e := w.newEngine()
			return e, e.Restore(dec)
		},
		Clone: w.cloneEngine,
	})
	w.buf = state.RegisterMap(w.ks, "buf", state.SliceCodec[bufEntry]())
	w.wm = state.RegisterPerGroup(w.ks, "wm", int64(math.MinInt64), state.GobCodec[int64]())
	w.minDue = math.MinInt64
	if ctx.Metrics != nil {
		w.droppedCtr = ctx.Metrics.Counter("node." + ctx.NodeName + ".records_dropped_late")
	}
	return ctx.RestoreKeyedState(w.ks)
}

// KeyedState implements KeyedStateful.
func (w *WindowOp) KeyedState() *state.KeyedState { return w.ks }

// Snapshot implements Operator. All window state is keyed and travels per
// key group through KeyedState; there is no residual per-subtask state.
func (w *WindowOp) Snapshot() ([]byte, error) { return nil, nil }

// OnRecord implements Operator: buffer until the watermark releases. Late
// elements — older than their key group's release watermark — are dropped
// (allowed lateness zero): releasing them would feed the per-key engines
// out-of-order input. The count of dropped records is observable via
// DroppedLate and, when the job runs with metrics, the per-node
// records_dropped_late counter.
func (w *WindowOp) OnRecord(r Record, _ Collector) {
	v, ok := r.Value.(float64)
	if !ok {
		return
	}
	if r.Ts <= w.wm.Get(r.Key) {
		w.droppedLate++
		if w.droppedCtr != nil {
			w.droppedCtr.Inc()
		}
		return
	}
	entries, _ := w.buf.Get(r.Key)
	// Appending never mutates the visible prefix, so a captured view of the
	// old slice header stays intact; sorting and compacting below go
	// through GetMut.
	w.buf.Put(r.Key, append(entries, bufEntry{Ts: r.Ts, Val: v}))
}

// OnBatch implements BatchedOperator: the run is grouped by key (counting
// sort into a reused gather buffer), then each distinct key pays one release-
// watermark read, one reorder-buffer load and one store for all its elements
// instead of one of each per record. Appending a key's survivors in a single
// append also grows the buffer once per run instead of element by element.
// The release watermark only moves in OnWatermark — never inside a data run
// — so one read per key is exact, and the per-element late check against it
// matches OnRecord's decision bit for bit. OnBatch emits nothing (results
// fire on watermarks), so ordering is trivially preserved.
func (w *WindowOp) OnBatch(b []Record, _ Collector) []Record {
	w.kt.reset()
	w.recIdx = w.recIdx[:0]
	w.segLen = w.segLen[:0]
	for i := range b {
		if _, ok := b[i].Value.(float64); !ok {
			w.recIdx = append(w.recIdx, -1)
			continue
		}
		idx, fresh := w.kt.index(b[i].Key)
		if fresh {
			w.segLen = append(w.segLen, 0)
		}
		w.segLen[idx]++
		w.recIdx = append(w.recIdx, idx)
	}
	keys := w.kt.distinct()
	if len(keys) == 0 {
		return nil
	}
	w.segOff = w.segOff[:0]
	total := int32(0)
	for _, n := range w.segLen {
		w.segOff = append(w.segOff, total)
		total += n
	}
	if cap(w.gather) < int(total) {
		w.gather = make([]bufEntry, total)
	} else {
		w.gather = w.gather[:total]
	}
	for i := range b {
		d := w.recIdx[i]
		if d < 0 {
			continue
		}
		w.gather[w.segOff[d]] = bufEntry{Ts: b[i].Ts, Val: b[i].Value.(float64)}
		w.segOff[d]++
	}
	var dropped int64
	for d, key := range keys {
		end := w.segOff[d]
		seg := w.gather[end-w.segLen[d] : end]
		wm := w.wm.Get(key)
		keep := seg[:0]
		for _, e := range seg {
			if e.Ts <= wm {
				dropped++
			} else {
				keep = append(keep, e)
			}
		}
		if len(keep) == 0 {
			continue
		}
		ref := w.buf.RefFor(key)
		entries, _ := ref.Get()
		// Like OnRecord: append-only growth keeps a captured view of the old
		// slice header intact, so Get+Put (not GetMut) is COW-safe here.
		ref.Put(append(entries, keep...))
	}
	if dropped > 0 {
		w.droppedLate += dropped
		if w.droppedCtr != nil {
			w.droppedCtr.Add(dropped)
		}
	}
	return nil
}

// DroppedLate reports how many elements arrived after the watermark had
// passed their timestamp and were therefore excluded.
func (w *WindowOp) DroppedLate() int64 { return w.droppedLate }

// engineFor returns the key's engine for mutation, creating it on demand.
func (w *WindowOp) engineFor(key uint64) *cutty.Engine {
	e, ok := w.engines.GetMut(key)
	if !ok {
		e = w.newEngine()
		w.engines.Put(key, e)
	}
	return e
}

// OnWatermark implements Operator. It runs in two phases, both in
// ascending key order so emission order is deterministic:
//
//  1. Release: each key's buffered records with ts <= wm are fed to its
//     engine in event-time order, and the engine's deadline lowers minDue.
//  2. Sweep: if wm >= minDue, every engine whose NextDeadline is <= wm
//     advances to wm and fires its due windows, and minDue is recomputed
//     as the minimum deadline left. A watermark below minDue skips the
//     sweep outright.
//
// An engine that is not due would have emitted nothing and changed no
// assigner state, so skipping it leaves the output byte-identical to
// advancing every engine. A watermark between window boundaries therefore
// costs only its release. The sweep runs eagerly, before the runtime
// forwards the watermark downstream, or a downstream event-time operator
// would drop the results as late. Only fed or fired engines go through
// GetMut, so only they pay a copy-on-write clone during a capture.
func (w *WindowOp) OnWatermark(wm int64, out Collector) {
	w.out = out
	for _, key := range w.buf.SortedKeys() {
		entries, _ := w.buf.Get(key)
		due := false
		for i := range entries {
			if entries[i].Ts <= wm {
				due = true
				break
			}
		}
		if !due {
			continue
		}
		entries, _ = w.buf.GetMut(key)
		slices.SortStableFunc(entries, func(a, b bufEntry) int { return cmp.Compare(a.Ts, b.Ts) })
		e := w.engineFor(key)
		w.curKey = key
		i := 0
		for ; i < len(entries) && entries[i].Ts <= wm; i++ {
			e.OnWatermark(entries[i].Ts)
			e.OnElement(entries[i].Ts, entries[i].Val)
		}
		if i == len(entries) {
			w.buf.Delete(key)
		} else {
			w.buf.Put(key, entries[i:])
		}
		w.minDue = min(w.minDue, e.NextDeadline())
	}
	if wm >= w.minDue {
		w.minDue = math.MaxInt64
		for _, key := range w.engines.SortedKeys() {
			e, _ := w.engines.Get(key)
			if e.NextDeadline() <= wm {
				e, _ = w.engines.GetMut(key)
				w.curKey = key
				e.OnWatermark(wm)
			}
			w.minDue = min(w.minDue, e.NextDeadline())
		}
	}
	w.wm.SetAll(wm)
	w.out = nil
}

// Finish implements Operator: flush every remaining window.
func (w *WindowOp) Finish(out Collector) {
	w.OnWatermark(math.MaxInt64, out)
}
