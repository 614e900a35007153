// Package cutty implements the Cutty aggregate-sharing engine (Carbone,
// Traub, Katsifodimos, Haridi, Markl: "Cutty: Aggregate Sharing for
// User-Defined Windows", CIKM 2016), the first research highlight of the
// STREAMLINE paper.
//
// The central idea: for *deterministic* user-defined window functions, it is
// sufficient to cut the stream into non-overlapping slices at window-begin
// boundaries (the union of begins across all registered queries). Every
// window is then a union of whole slices, so
//
//   - each element is lifted and combined into exactly one slice partial per
//     distinct aggregate function — O(1) aggregation work per element
//     regardless of how many queries or how finely windows overlap, and
//   - each completed window is answered with O(log s) combines by a range
//     query over a FlatFAT aggregate tree built on the slice partials,
//     where s is the number of live slices.
//
// This is what produces the order-of-magnitude gap over bucket-per-window
// and element-granularity sharing (B-Int) measured in experiments E1–E5,
// and — unlike Pairs and Panes — it applies to non-periodic windows such as
// sessions, punctuations and delta windows.
package cutty

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/agg"
	"repro/internal/engine"
	"repro/internal/window"
)

// sliceMeta describes one slice: the timestamp of its first element and the
// number of elements folded into it.
type sliceMeta struct {
	firstTs int64
	count   int64
}

// metaRing stores slice metadata addressed by absolute slice index.
type metaRing struct {
	base  int64 // absolute index of items[0]
	items []sliceMeta
}

func (r *metaRing) len() int64     { return int64(len(r.items)) }
func (r *metaRing) nextAbs() int64 { return r.base + r.len() }
func (r *metaRing) at(abs int64) *sliceMeta {
	return &r.items[abs-r.base]
}

func (r *metaRing) append(m sliceMeta) { r.items = append(r.items, m) }

func (r *metaRing) popFront() {
	r.items = r.items[1:]
	r.base++
	// Reclaim the unreachable prefix once it dominates the backing array.
	if cap(r.items) > 64 && len(r.items) < cap(r.items)/4 {
		fresh := make([]sliceMeta, len(r.items))
		copy(fresh, r.items)
		r.items = fresh
	}
}

// firstAtOrAfter returns the smallest absolute slice index in [fromAbs,
// nextAbs) whose firstTs >= cutoff, or nextAbs if none (timestamps are
// non-decreasing across slices).
func (r *metaRing) firstAtOrAfter(fromAbs, cutoff int64) int64 {
	lo := int(fromAbs - r.base)
	if lo < 0 {
		lo = 0
	}
	n := len(r.items)
	idx := sort.Search(n-lo, func(i int) bool { return r.items[lo+i].firstTs >= cutoff })
	return r.base + int64(lo+idx)
}

// fnStore is the shared per-aggregate-function state: one FlatFAT over slice
// partials, shared by every query using the same function name.
type fnStore struct {
	fn   *agg.FnF64
	tree *agg.FlatFAT[agg.Acc]
	refs int
}

type openWin struct {
	begin int64 // absolute index of the window's first slice
}

type queryState struct {
	id       int
	assigner window.Assigner
	store    *fnStore
	open     map[int64]openWin
	minBegin int64 // valid when len(open) > 0
}

// Engine is the Cutty multi-query window aggregation engine. It is not safe
// for concurrent use; the dataflow layer runs one engine per operator
// subtask.
type Engine struct {
	emit engine.Emit

	pos     int64
	curWM   int64
	queries map[int]*queryState
	nextQID int
	stores  map[string]*fnStore
	// qlist and stlist mirror queries and stores in insertion order: the
	// per-element and per-watermark paths iterate them instead of the maps
	// (Go map iteration re-seeds its random start on every call, a real cost
	// when OnElement and OnWatermark run once per record), and they make
	// dispatch — and therefore emission order under multiple queries —
	// deterministic instead of map-order.
	qlist  []*queryState
	stlist []*fnStore

	meta       metaRing
	cutPending bool
	linearEval bool

	// active is the query whose assigner callbacks are being dispatched.
	active *queryState
}

var _ engine.Engine = (*Engine)(nil)

// Option configures an Engine.
type Option func(*Engine)

// WithLinearEval switches window evaluation from O(log s) FlatFAT range
// queries to a linear fold over the window's slices — the evaluation-
// strategy ablation of experiment E11. Slicing and sharing are unchanged.
func WithLinearEval() Option {
	return func(e *Engine) { e.linearEval = true }
}

// New returns an empty Cutty engine emitting completed windows to emit.
func New(emit engine.Emit, opts ...Option) *Engine {
	e := &Engine{
		emit:    emit,
		curWM:   math.MinInt64,
		queries: make(map[int]*queryState),
		stores:  make(map[string]*fnStore),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "cutty" }

// AddQuery implements engine.Engine. Cutty accepts every deterministic
// window spec.
func (e *Engine) AddQuery(q engine.Query) (int, error) {
	if q.Fn == nil || q.Window.Factory == nil {
		return 0, fmt.Errorf("cutty: query requires a window spec and an aggregate function")
	}
	st, ok := e.stores[q.Fn.Name]
	if !ok {
		st = &fnStore{fn: q.Fn, tree: agg.NewFlatFAT(q.Fn.Identity, q.Fn.Combine, 16)}
		// Align the new tree with the existing slice ring: identity
		// partials for slices that predate the query (its windows can only
		// begin at future slices, so these leaves are never queried).
		for i := int64(0); i < e.meta.len(); i++ {
			st.tree.Append(q.Fn.Identity)
		}
		e.stores[q.Fn.Name] = st
		e.stlist = append(e.stlist, st)
	}
	st.refs++
	id := e.nextQID
	e.nextQID++
	qs := &queryState{
		id:       id,
		assigner: q.Window.Factory(),
		store:    st,
		open:     make(map[int64]openWin),
	}
	e.queries[id] = qs
	e.qlist = append(e.qlist, qs)
	return id, nil
}

// RemoveQuery implements engine.Engine.
func (e *Engine) RemoveQuery(id int) {
	q, ok := e.queries[id]
	if !ok {
		return
	}
	delete(e.queries, id)
	for i, qs := range e.qlist {
		if qs == q {
			e.qlist = append(e.qlist[:i], e.qlist[i+1:]...)
			break
		}
	}
	q.store.refs--
	if q.store.refs == 0 {
		delete(e.stores, q.store.fn.Name)
		for i, st := range e.stlist {
			if st == q.store {
				e.stlist = append(e.stlist[:i], e.stlist[i+1:]...)
				break
			}
		}
	}
	e.evict()
}

// OnElement implements engine.Engine.
func (e *Engine) OnElement(ts int64, v float64) {
	// 1. Let every query's window function observe the element first; any
	//    Open cuts a slice boundary immediately before it.
	for _, q := range e.qlist {
		e.active = q
		q.assigner.OnElement(ts, e.pos, v, (*ctx)(e))
	}
	e.active = nil
	// 2. Fold the element into the current slice (or start a new one),
	//    once per distinct aggregate function — this is the shared work.
	if e.cutPending || e.meta.len() == 0 {
		e.meta.append(sliceMeta{firstTs: ts, count: 1})
		for _, st := range e.stlist {
			st.tree.Append(st.fn.Lift(v))
		}
		e.cutPending = false
	} else {
		e.meta.at(e.meta.nextAbs()-1).count++
		for _, st := range e.stlist {
			st.tree.UpdateBack(st.fn.Combine(st.tree.Back(), st.fn.Lift(v)))
		}
	}
	e.pos++
}

// OnWatermark implements engine.Engine.
func (e *Engine) OnWatermark(wm int64) {
	// Equal watermarks are idempotent: skip the per-query dispatch.
	if wm <= e.curWM {
		return
	}
	e.curWM = wm
	for _, q := range e.qlist {
		e.active = q
		q.assigner.OnTime(wm, (*ctx)(e))
	}
	e.active = nil
	e.evict()
}

// NextDeadline returns the smallest watermark at which OnWatermark would
// close a window of any query — the minimum of the assigners' deadlines —
// or math.MaxInt64 when only the end-of-stream flush can close one. A
// watermark below it is a no-op for emission, so callers running many
// engines may skip it.
func (e *Engine) NextDeadline() int64 {
	d := int64(math.MaxInt64)
	for _, q := range e.qlist {
		d = min(d, q.assigner.Deadline())
	}
	return d
}

// Clone returns an independent deep copy of the engine emitting to emit:
// the slice ring, every function store's FlatFAT, every query's open
// windows and assigner. Aggregate functions and window parameters are
// immutable and shared. Snapshotting the clone yields the same bytes as
// snapshotting the original.
func (e *Engine) Clone(emit engine.Emit) *Engine {
	c := &Engine{
		emit:       emit,
		pos:        e.pos,
		curWM:      e.curWM,
		queries:    make(map[int]*queryState, len(e.queries)),
		nextQID:    e.nextQID,
		stores:     make(map[string]*fnStore, len(e.stores)),
		qlist:      make([]*queryState, 0, len(e.qlist)),
		stlist:     make([]*fnStore, 0, len(e.stlist)),
		meta:       metaRing{base: e.meta.base, items: slices.Clone(e.meta.items)},
		cutPending: e.cutPending,
		linearEval: e.linearEval,
	}
	for _, st := range e.stlist {
		ns := &fnStore{fn: st.fn, tree: st.tree.Clone(), refs: st.refs}
		c.stores[st.fn.Name] = ns
		c.stlist = append(c.stlist, ns)
	}
	for _, q := range e.qlist {
		nq := &queryState{
			id:       q.id,
			assigner: q.assigner.Clone(),
			store:    c.stores[q.store.fn.Name],
			open:     maps.Clone(q.open),
			minBegin: q.minBegin,
		}
		c.queries[q.id] = nq
		c.qlist = append(c.qlist, nq)
	}
	return c
}

// StoredPartials implements engine.Engine: live slice partials across all
// function stores.
func (e *Engine) StoredPartials() int {
	n := 0
	for _, st := range e.stlist {
		n += st.tree.Len()
	}
	return n
}

// Slices reports the number of live slices (diagnostics, E5).
func (e *Engine) Slices() int { return int(e.meta.len()) }

// ctx adapts Engine to window.Context for the query in e.active.
type ctx Engine

func (c *ctx) engine() *Engine { return (*Engine)(c) }

// Open implements window.Context: the window begins with the next element;
// a slice boundary is cut before it.
func (c *ctx) Open(id int64) {
	e := c.engine()
	q := e.active
	// The window starts at the slice created next: the current slice (if
	// any) ends at this boundary, cutPending forces the next element to
	// open a fresh slice at absolute index nextAbs().
	begin := e.meta.nextAbs()
	e.cutPending = true
	if _, dup := q.open[id]; dup {
		return
	}
	if len(q.open) == 0 || begin < q.minBegin {
		q.minBegin = begin
	}
	q.open[id] = openWin{begin: begin}
}

// CloseHere implements window.Context: content is every slice so far.
func (c *ctx) CloseHere(id, end int64) {
	e := c.engine()
	c.close(id, end, e.meta.nextAbs())
}

// CloseAt implements window.Context: content is every slice whose first
// element's timestamp is below cutoff.
func (c *ctx) CloseAt(id, end, cutoff int64) {
	e := c.engine()
	q := e.active
	w, ok := q.open[id]
	if !ok {
		return
	}
	toAbs := e.meta.firstAtOrAfter(w.begin, cutoff)
	c.close(id, end, toAbs)
}

func (c *ctx) close(id, end, toAbs int64) {
	e := c.engine()
	q := e.active
	w, ok := q.open[id]
	if !ok {
		return
	}
	delete(q.open, id)
	if w.begin == q.minBegin && len(q.open) > 0 {
		q.minBegin = math.MaxInt64
		for _, ow := range q.open {
			if ow.begin < q.minBegin {
				q.minBegin = ow.begin
			}
		}
	}
	st := q.store
	lo := w.begin - e.meta.base
	hi := toAbs - e.meta.base
	var acc agg.Acc
	if e.linearEval {
		acc = st.tree.FoldRange(int(lo), int(hi))
	} else {
		acc = st.tree.Range(int(lo), int(hi))
	}
	e.emit(engine.Result{
		QueryID: q.id,
		Start:   id,
		End:     end,
		Value:   st.fn.Lower(acc),
		Count:   acc.N,
	})
}

// evict drops slices that no open window can reference anymore. A window
// opened in the future always begins at the next slice or later, so every
// slice below the minimum open begin (or every slice at all, if no window is
// open) is dead. The trailing slice may still receive elements; evicting it
// forces a cut before the next element.
func (e *Engine) evict() {
	minNeeded := int64(math.MaxInt64)
	for _, q := range e.qlist {
		if len(q.open) > 0 && q.minBegin < minNeeded {
			minNeeded = q.minBegin
		}
	}
	for e.meta.len() > 0 && e.meta.base < minNeeded {
		last := e.meta.len() == 1
		e.meta.popFront()
		for _, st := range e.stlist {
			st.tree.EvictFront()
		}
		if last {
			e.cutPending = false // next element starts a fresh slice anyway
		}
	}
}
