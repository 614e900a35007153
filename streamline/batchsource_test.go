package streamline_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/streamline"
)

// countingBackend counts the checkpoints it persisted.
type countingBackend struct {
	streamline.Backend
	persisted atomic.Int64
}

func (b *countingBackend) Persist(s *streamline.Snapshot) error {
	if err := b.Backend.Persist(s); err != nil {
		return err
	}
	b.persisted.Add(1)
	return nil
}

// distinctEvents returns n events over five names whose values are all
// different, so a lost or repeated record changes a per-name sum.
func distinctEvents(n int) []event {
	events := make([]event, n)
	for i := range events {
		events[i] = event{TsMs: int64(i), Name: fmt.Sprintf("k%d", i%5), Value: float64(i)}
	}
	return events
}

// buildNameSums sums and counts events per name. gate runs on every event
// in the source's chain, ahead of the keyed exchange.
func buildNameSums(env *streamline.Env, src *streamline.Stream[event], gate func()) (sums, counts *streamline.Results[float64]) {
	gated := streamline.Map(src, "gate", func(e event) event { gate(); return e })
	keyed := streamline.KeyByString(gated, "name", func(e event) string { return e.Name })
	add := func(acc, x float64) float64 { return acc + x }
	sums = streamline.Collect(streamline.ReduceByKey(
		streamline.Map(keyed, "value", func(e event) float64 { return e.Value }), "sum", add, false), "sums")
	counts = streamline.Collect(streamline.ReduceByKey(
		streamline.Map(keyed, "one", func(event) float64 { return 1 }), "count", add, false), "counts")
	return sums, counts
}

func byKey(res *streamline.Results[float64]) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, k := range res.Records() {
		out[k.Key] = k.Value
	}
	return out
}

// slowUntilCheckpoint returns a gate that holds every record for a moment
// until the backend has persisted a checkpoint, so one lands mid-scan, and
// afterwards cancels the run — the crash.
func slowUntilCheckpoint(b *countingBackend, cancel context.CancelFunc) func() {
	return func() {
		if b.persisted.Load() == 0 {
			time.Sleep(100 * time.Microsecond)
			return
		}
		cancel()
	}
}

// A JSONL scan and a topic replay — both read a batch at a time — are
// checkpointed mid-scan, killed, and restored at exchange batch sizes 1, 2
// and 256. The restored run must finish the scan exactly once: per-name
// sums and counts equal to a sequential run over the same events.
func TestBatchedScanCheckpointRestoreExactlyOnce(t *testing.T) {
	const n = 4000
	events := distinctEvents(n)
	refEnv := streamline.New(streamline.WithParallelism(1))
	refSums, refCounts := buildNameSums(refEnv, streamline.From(refEnv, "events", streamline.Slice(events)), func() {})
	execute(t, refEnv.Execute)

	path := writeJSONL(t, events)
	store := openTopicStore(t, streamline.WithSegmentBytes(16<<10))
	persistEvents(t, store, "events", events)
	sources := map[string]func() streamline.Source[event]{
		"jsonl": func() streamline.Source[event] { return streamline.JSONL[event](path, streamline.WithSplitSize(8<<10)) },
		"topic": func() streamline.Source[event] {
			return streamline.Topic[event](store, "events", streamline.WithSplitSize(8<<10))
		},
	}
	for _, name := range []string{"jsonl", "topic"} {
		for _, batch := range []int{1, 2, 256} {
			t.Run(fmt.Sprintf("%s/batch%d", name, batch), func(t *testing.T) {
				build := func(backend streamline.Backend, gate func()) (*streamline.Env, *streamline.Results[float64], *streamline.Results[float64]) {
					env := streamline.New(streamline.WithParallelism(2), streamline.WithBatchSize(batch),
						streamline.WithCheckpointing(backend, 2*time.Millisecond))
					src := streamline.From(env, "events", sources[name](), streamline.WithSourceParallelism(2))
					sums, counts := buildNameSums(env, src, gate)
					return env, sums, counts
				}
				backend := &countingBackend{Backend: streamline.NewMemoryBackend(0)}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				crashEnv, _, _ := build(backend, slowUntilCheckpoint(backend, cancel))
				if err := crashEnv.Execute(ctx); err == nil {
					t.Fatalf("the scan finished before its first checkpoint")
				}
				snap, ok, err := backend.Latest()
				if err != nil || !ok {
					t.Fatalf("no checkpoint to restore: ok=%v err=%v", ok, err)
				}

				var replayed atomic.Int64
				recEnv, sums, counts := build(streamline.NewMemoryBackend(0), func() { replayed.Add(1) })
				execute(t, func(ctx context.Context) error { return recEnv.ExecuteRestored(ctx, snap) })
				if r := replayed.Load(); r == 0 || r >= n {
					t.Fatalf("restored run read %d of %d events: the checkpoint was not mid-scan", r, n)
				}
				for what, pair := range map[string][2]*streamline.Results[float64]{"sum": {sums, refSums}, "count": {counts, refCounts}} {
					got, want := byKey(pair[0]), byKey(pair[1])
					if len(got) != len(want) {
						t.Fatalf("%s: %d keys, want %d", what, len(got), len(want))
					}
					for k, v := range want {
						if got[k] != v {
							t.Fatalf("%s of key %d = %v, want %v (exactly-once across the restore)", what, k, got[k], v)
						}
					}
				}
			})
		}
	}
}

// Env.Metrics reports local runs: a registry taken before Execute sees the
// scan's records_out, the source node's records_in and the completed
// checkpoints.
func TestEnvMetricsReportLocalRun(t *testing.T) {
	const n = 3000
	path := writeJSONL(t, distinctEvents(n))
	backend := &countingBackend{Backend: streamline.NewMemoryBackend(0)}
	env := streamline.New(streamline.WithParallelism(2), streamline.WithCheckpointing(backend, 2*time.Millisecond))
	reg := env.Metrics()
	src := streamline.From(env, "lines", streamline.JSONL[event](path, streamline.WithSplitSize(8<<10)))
	buildNameSums(env, src, func() {
		if backend.persisted.Load() == 0 {
			time.Sleep(100 * time.Microsecond) // make sure a checkpoint completes mid-scan
		}
	})
	execute(t, env.Execute)
	for _, name := range []string{"node.lines.records_out", "node.lines.records_in"} {
		if got := reg.Counter(name).Value(); got != n {
			t.Fatalf("%s = %d, want %d", name, got, n)
		}
	}
	if got := reg.Counter("job.checkpoints").Value(); got < 1 {
		t.Fatalf("job.checkpoints = %d, want >= 1", got)
	}
}

// blockingSource's reader returns one record, then blocks in Next until
// released — a live input gone quiet.
type blockingSource struct{ release chan struct{} }

func (s blockingSource) Open(int, int) streamline.Reader[int] {
	return &blockingReader{release: s.release}
}

type blockingReader struct {
	release chan struct{}
	calls   int
}

func (r *blockingReader) Next() (streamline.Keyed[int], streamline.ReadStatus) {
	r.calls++
	if r.calls == 1 {
		return streamline.Keyed[int]{Ts: 1, Value: 7}, streamline.ReadData
	}
	<-r.release
	return streamline.Keyed[int]{}, streamline.ReadEnd
}

func (r *blockingReader) Snapshot() ([]byte, error) { return nil, nil }
func (r *blockingReader) Restore([]byte) error      { return nil }

// A custom reader stays record-at-a-time: its first record reaches the sink
// within the flush interval even while its second Next blocks.
func TestBlockingReaderDeliversFirstRecordPromptly(t *testing.T) {
	release := make(chan struct{})
	got := make(chan int, 1)
	env := streamline.New(streamline.WithParallelism(1), streamline.WithFlushInterval(5*time.Millisecond))
	src := streamline.From(env, "live", streamline.Source[int](blockingSource{release: release}))
	streamline.Sink(streamline.Map(src, "double", func(v int) int { return 2 * v }), "out",
		func(k streamline.Keyed[int]) { got <- k.Value })
	done := make(chan error, 1)
	go func() { done <- env.Execute(context.Background()) }()
	select {
	case v := <-got:
		if v != 14 {
			t.Fatalf("sink got %d, want 14", v)
		}
	case <-time.After(5 * time.Second):
		close(release)
		<-done
		t.Fatalf("the first record was held back while the reader blocked")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
