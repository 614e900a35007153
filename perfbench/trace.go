package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/streamline"
)

// The traced run records spans from the benchmark's own files, around the
// calls it makes into each layer's public functions: Execute and
// ExecuteDistributed (one span per job), Source.Open (one span per
// subtask), Reader.Next, the user functions and the sink callback (one
// aggregated span per subtask or function per job: a per-record span would
// cost more than most of the calls it measures), and Backend.Persist (one
// span per checkpoint). Spans stay in memory and are written out as JSON
// when the run ends. A nil *tracer is the untraced configuration: nothing
// is wrapped and nothing is timed.

var epoch = time.Now()

// nanotime is the monotonic clock every span uses.
func nanotime() int64 { return int64(time.Since(epoch)) }

type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

type tracer struct {
	mu     sync.Mutex
	spans  []span
	job    int64       // span id of the running job; jobs run one at a time
	bounds []*boundary // aggregated boundaries of the running job
	totals map[string]*total
}

// total sums one boundary kind across subtasks and jobs: calls, the calls
// that carried a record (count), time inside, and the longest single span.
type total struct {
	calls, busyNs, count int64
	maxNs                int64
}

func newTracer() *tracer { return &tracer{totals: map[string]*total{}} }

func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans) + 1)
	if s.Parent == 0 {
		s.Parent = t.job
	}
	t.spans = append(t.spans, s)
	tot := t.totalLocked(s.Name)
	tot.calls++
	tot.busyNs += s.End - s.Start
	if d := s.End - s.Start; d > tot.maxNs {
		tot.maxNs = d
	}
	return s.ID
}

func (t *tracer) totalLocked(kind string) *total {
	tot := t.totals[kind]
	if tot == nil {
		tot = &total{}
		t.totals[kind] = tot
	}
	return tot
}

// total returns the sums recorded for one boundary kind.
func (t *tracer) total(kind string) total {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tot := t.totals[kind]; tot != nil {
		return *tot
	}
	return total{}
}

// busyWithPrefix sums the time inside every boundary kind with the prefix.
func (t *tracer) busyWithPrefix(prefix string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for kind, tot := range t.totals {
		if strings.HasPrefix(kind, prefix) {
			ns += tot.busyNs
		}
	}
	return ns
}

// maxAttr returns the largest value of one attribute over the spans named
// name.
func (t *tracer) maxAttr(name, attr string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var m int64
	for _, s := range t.spans {
		if s.Name == name && s.Attrs[attr] > m {
			m = s.Attrs[attr]
		}
	}
	return m
}

// beginJob opens the span of one Execute or ExecuteDistributed call; the
// returned function closes it and flushes, as its child spans, the
// aggregated boundaries registered since the previous job ended (plan
// building registers the user functions' boundaries before the job
// starts).
func (t *tracer) beginJob(name string) func() {
	if t == nil {
		return func() {}
	}
	start := nanotime()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Name: name, Start: start})
	t.job = int64(len(t.spans))
	t.mu.Unlock()
	return func() {
		end := nanotime()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans[t.job-1].End = end
		for _, b := range t.bounds {
			calls := b.calls.Load()
			if calls == 0 {
				continue
			}
			t.spans = append(t.spans, span{
				ID: int64(len(t.spans) + 1), Parent: t.job, Name: b.kind,
				Start: b.first.Load(), End: b.last.Load(),
				Attrs: map[string]int64{"calls": calls, "busy_ns": b.busy.Load(), "records": b.records.Load(), "subtask": b.subtask},
			})
			tot := t.totalLocked(b.kind)
			tot.calls += calls
			tot.busyNs += b.busy.Load()
			tot.count += b.records.Load()
		}
		t.bounds = nil
		t.job = 0
	}
}

// boundary is one per-record call site aggregated over a job: how many
// calls, how many of them carried a record, and the time spent inside. It
// is padded so boundaries of different subtasks do not share a cache line.
type boundary struct {
	kind    string
	subtask int64
	calls   atomic.Int64
	records atomic.Int64
	busy    atomic.Int64
	first   atomic.Int64
	last    atomic.Int64
	_       [64]byte
}

func (t *tracer) boundary(kind string, subtask int) *boundary {
	b := &boundary{kind: kind, subtask: int64(subtask)}
	t.mu.Lock()
	t.bounds = append(t.bounds, b)
	t.mu.Unlock()
	return b
}

// observe records one call that started at start (a nanotime value).
func (b *boundary) observe(start int64, record bool) {
	end := nanotime()
	if b.calls.Add(1) == 1 {
		b.first.Store(start)
	}
	if record {
		b.records.Add(1)
	}
	b.busy.Add(end - start)
	b.last.Store(end)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ---- source ------------------------------------------------------------------

// traceSource wraps a connector so that Open and every Reader.Next call are
// timed. It calls the inner connector's plain Open, which serves one
// execution at a time — every job builds a fresh connector.
func traceSource[T any](tr *tracer, src streamline.Source[T]) streamline.Source[T] {
	if tr == nil {
		return src
	}
	return tracedSource[T]{inner: src, tr: tr}
}

type tracedSource[T any] struct {
	inner streamline.Source[T]
	tr    *tracer
}

func (s tracedSource[T]) Open(sub, par int) streamline.Reader[T] {
	start := nanotime()
	r := s.inner.Open(sub, par)
	s.tr.add(span{Name: "source.open", Start: start, End: nanotime(), Attrs: map[string]int64{"subtask": int64(sub)}})
	return &tracedReader[T]{inner: r, b: s.tr.boundary("source.next", sub)}
}

// tracedReader times Next and forwards every optional reader capability
// the runtime looks for, so the traced plan behaves as the untraced one.
type tracedReader[T any] struct {
	inner streamline.Reader[T]
	b     *boundary
}

func (r *tracedReader[T]) Next() (streamline.Keyed[T], streamline.ReadStatus) {
	start := nanotime()
	k, st := r.inner.Next()
	r.b.observe(start, st == streamline.ReadData)
	return k, st
}

func (r *tracedReader[T]) Snapshot() ([]byte, error) { return r.inner.Snapshot() }
func (r *tracedReader[T]) Restore(b []byte) error    { return r.inner.Restore(b) }

func (r *tracedReader[T]) OpenSource(ctx *dataflow.OpContext) {
	if o, ok := r.inner.(interface{ OpenSource(*dataflow.OpContext) }); ok {
		o.OpenSource(ctx)
	}
}

func (r *tracedReader[T]) Unordered() bool {
	u, ok := r.inner.(interface{ Unordered() bool })
	return ok && u.Unordered()
}

func (r *tracedReader[T]) SourceLocalOnly() bool {
	l, ok := r.inner.(interface{ SourceLocalOnly() bool })
	return ok && l.SourceLocalOnly()
}

func (r *tracedReader[T]) Err() error {
	if f, ok := r.inner.(interface{ Err() error }); ok {
		return f.Err()
	}
	return nil
}

// ---- backend -----------------------------------------------------------------

// traceBackend wraps a checkpoint backend so that every Persist is a span
// carrying the snapshot's size.
func traceBackend(tr *tracer, b streamline.Backend) streamline.Backend {
	if tr == nil {
		return b
	}
	return tracedBackend{Backend: b, tr: tr}
}

type tracedBackend struct {
	streamline.Backend
	tr *tracer
}

func (b tracedBackend) Persist(s *streamline.Snapshot) error {
	var bytes int64
	for _, blob := range s.Entries {
		bytes += int64(len(blob))
	}
	for _, blob := range s.Groups {
		bytes += int64(len(blob))
	}
	start := nanotime()
	err := b.Backend.Persist(s)
	b.tr.add(span{Name: "backend.persist", Start: start, End: nanotime(),
		Attrs: map[string]int64{"bytes": bytes, "checkpoint": s.CheckpointID}})
	return err
}
