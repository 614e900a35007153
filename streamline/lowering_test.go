package streamline_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/streamline"
)

// Tests of how typed pipelines lower onto the engine graph: the optimizer's
// defaults and choices, build-time errors, and end-to-end results of every
// operator on data at rest and in motion.

// keyedRecords is n records with value i at event time i, keyed i % 5.
func keyedRecords(n int) []streamline.Keyed[float64] {
	recs := make([]streamline.Keyed[float64], n)
	for i := range recs {
		recs[i] = streamline.Keyed[float64]{Ts: int64(i), Key: uint64(i % 5), Value: float64(i)}
	}
	return recs
}

func byRecordKey(k streamline.Keyed[float64]) uint64 { return k.Key }

func add(acc, v float64) float64 { return acc + v }

// sumByKey folds collected values per key.
func sumByKey(out *streamline.Results[float64]) map[uint64]float64 {
	got := map[uint64]float64{}
	for _, k := range out.Records() {
		got[k.Key] += k.Value
	}
	return got
}

// wantSums is sumByKey's expectation for keyedRecords(n).
func wantSums(n int) map[uint64]float64 {
	want := map[uint64]float64{}
	for i := 0; i < n; i++ {
		want[uint64(i%5)] += float64(i)
	}
	return want
}

func assertSums(t *testing.T, got, want map[uint64]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d: %v", len(got), len(want), got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %d = %v, want %v", k, got[k], w)
		}
	}
}

// nodeNamed returns the plan node with the given name.
func nodeNamed(t *testing.T, env *streamline.Env, name string) *dataflow.Node {
	t.Helper()
	for _, n := range env.Graph().Nodes() {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("node %q not in plan:\n%s", name, planString(env.Graph()))
	return nil
}

func TestEnvironmentDefaults(t *testing.T) {
	env := streamline.New()
	src := streamline.From(env, "src", streamline.KeyedSlice(keyedRecords(10)))
	streamline.Collect(streamline.ReduceByKey(streamline.KeyByRecord(src, "key", byRecordKey), "sum", add, false), "out")
	if got, want := nodeNamed(t, env, "sum").Parallelism, min(runtime.NumCPU(), 4); got != want {
		t.Fatalf("default parallelism = %d, want min(NumCPU, 4) = %d", got, want)
	}
	if !env.Chaining() {
		t.Fatalf("chaining should default on")
	}
	comb, ok := nodeNamed(t, env, "sum-combine").NewOperator().(*dataflow.CombinerOp)
	if !ok || !comb.Adaptive {
		t.Fatalf("combiner should default to auto (adaptive), got %#v", comb)
	}
}

func TestBatchWordCountStyle(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(2))
	src := streamline.From(env, "src", streamline.KeyedSlice(keyedRecords(100)))
	inc := streamline.Map(src, "inc", func(v float64) float64 { return v + 0 })
	sums := streamline.ReduceByKey(streamline.KeyByRecord(inc, "key", byRecordKey), "sum", add, false)
	out := streamline.Collect(sums, "out")
	execute(t, env.Execute)
	assertSums(t, sumByKey(out), wantSums(100))
}

// The unified-model property (the paper's central premise): the identical
// pipeline produces identical results whether the input is a bounded
// collection or a generator-driven stream.
func TestBatchStreamEquivalence(t *testing.T) {
	build := func(fromGen bool) map[uint64]float64 {
		env := streamline.New(streamline.WithParallelism(2))
		var s *streamline.Stream[float64]
		if fromGen {
			s = streamline.From(env, "gen", streamline.Generator(200, func(sub, par int, i int64) streamline.Keyed[float64] {
				global := i*int64(par) + int64(sub)
				return streamline.Keyed[float64]{Ts: global, Key: uint64(global % 5), Value: float64(global)}
			}), streamline.WithSourceParallelism(2))
		} else {
			s = streamline.From(env, "slice", streamline.KeyedSlice(keyedRecords(200)))
		}
		out := streamline.Collect(streamline.ReduceByKey(streamline.KeyByRecord(s, "key", byRecordKey), "sum", add, false), "out")
		execute(t, env.Execute)
		return sumByKey(out)
	}
	assertSums(t, build(true), build(false))
}

// A slice source runs at the environment's default parallelism: it splits
// records round-robin across subtasks, so pinning it to 1 would waste the
// machine.
func TestSliceSourceHonorsEnvParallelism(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(3))
	src := streamline.From(env, "src", streamline.KeyedSlice(keyedRecords(30)))
	out := streamline.Collect(streamline.ReduceByKey(streamline.KeyByRecord(src, "key", byRecordKey), "sum", add, false), "out")
	if got := nodeNamed(t, env, "src").Parallelism; got != 3 {
		t.Fatalf("slice source parallelism = %d, want env default 3", got)
	}
	execute(t, env.Execute)
	assertSums(t, sumByKey(out), wantSums(30))
}

// countSource is a custom connector: each of its readers emits n records of
// value 1 and then ends.
type countSource struct{ n int64 }

func (s countSource) Open(_, _ int) streamline.Reader[float64] { return &countReader{n: s.n} }

type countReader struct{ i, n int64 }

func (r *countReader) Next() (streamline.Keyed[float64], streamline.ReadStatus) {
	if r.i >= r.n {
		return streamline.Keyed[float64]{}, streamline.ReadEnd
	}
	r.i++
	return streamline.Keyed[float64]{Ts: r.i, Key: uint64(r.i), Value: 1}, streamline.ReadData
}

func (r *countReader) Snapshot() ([]byte, error) { return []byte(fmt.Sprint(r.i)), nil }

func (r *countReader) Restore(b []byte) error {
	_, err := fmt.Sscan(string(b), &r.i)
	return err
}

// From is the single lowering entry point for sources: a custom connector
// plugs in directly, and an explicit source parallelism overrides the
// environment default.
func TestFromPluggableSource(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(2))
	src := streamline.From[float64](env, "custom", countSource{n: 10}, streamline.WithSourceParallelism(1))
	if got := nodeNamed(t, env, "custom").Parallelism; got != 1 {
		t.Fatalf("explicit source parallelism = %d, want 1", got)
	}
	var n int
	streamline.Sink(src, "count", func(streamline.Keyed[float64]) { n++ })
	execute(t, env.Execute)
	if n != 10 {
		t.Fatalf("sink saw %d records, want 10", n)
	}
}

func TestUnionMergesStreams(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	a := streamline.From(env, "a", streamline.KeyedSlice(keyedRecords(30)))
	b := streamline.From(env, "b", streamline.KeyedSlice(keyedRecords(40)))
	out := streamline.Collect(streamline.Union(a, "u", b), "out")
	execute(t, env.Execute)
	if got := len(out.Records()); got != 70 {
		t.Fatalf("union saw %d records, want 70", got)
	}
}

func TestFilterFlatMapLowering(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	src := streamline.From(env, "src", streamline.KeyedSlice(keyedRecords(60)))
	odd := streamline.Filter(src, "odd", func(v float64) bool { return int64(v)%2 == 1 })
	triple := streamline.FlatMap(odd, "triple", func(v float64, em streamline.Emitter[float64]) {
		for k := 0; k < 3; k++ {
			em.Emit(v)
		}
	})
	out := streamline.Collect(triple, "out")
	execute(t, env.Execute)
	if got := len(out.Records()); got != 90 { // 30 odds * 3
		t.Fatalf("got %d records, want 90", got)
	}
}

// A paced keyed reduction under checkpointing completes checkpoints, and the
// backend holds the latest snapshot after the job ends.
func TestCheckpointingKeyedReduce(t *testing.T) {
	backend := streamline.NewMemoryBackend(0)
	env := streamline.New(streamline.WithParallelism(1), streamline.WithCheckpointing(backend, 20*time.Millisecond))
	src := streamline.From(env, "gen", streamline.Paced(streamline.Generator(3000, func(_, _ int, i int64) streamline.Keyed[float64] {
		return streamline.Keyed[float64]{Ts: i, Key: uint64(i % 3), Value: 1}
	}), 15000), streamline.WithSourceParallelism(1))
	out := streamline.Collect(streamline.ReduceByKey(streamline.KeyByRecord(src, "key", byRecordKey), "sum", add, false), "out")
	execute(t, env.Execute)
	if env.CompletedCheckpoints() == 0 {
		t.Fatalf("no checkpoints completed")
	}
	if len(out.Records()) == 0 {
		t.Fatalf("no output")
	}
	if _, ok, _ := backend.Latest(); !ok {
		t.Fatalf("backend empty")
	}
}

func TestWindowAggregateMultiQuery(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(2))
	src := streamline.From(env, "gen", streamline.Generator(300, func(_, _ int, i int64) streamline.Keyed[float64] {
		return streamline.Keyed[float64]{Ts: i, Key: uint64(i % 2), Value: 1}
	}), streamline.WithSourceParallelism(1))
	win := streamline.WindowAggregate(streamline.KeyByRecord(src, "key", byRecordKey), "win",
		streamline.Query(streamline.Tumbling(30), streamline.Sum()),
		streamline.Query(streamline.Sliding(60, 30), streamline.Count()),
	)
	out := streamline.Collect(win, "out")
	execute(t, env.Execute)

	perQuery := map[int]int{}
	for _, k := range out.Records() {
		wr := k.Value
		perQuery[wr.QueryID]++
		switch wr.QueryID {
		case 0:
			if wr.Value != 15 { // 30 ticks alternating 2 keys -> 15 each
				t.Fatalf("tumbling sum = %v, want 15 (%+v)", wr.Value, wr)
			}
		case 1:
			if wr.Count != 30 && wr.Count != 15 { // full or edge window per key
				t.Fatalf("sliding count = %d (%+v)", wr.Count, wr)
			}
		}
	}
	if perQuery[0] == 0 || perQuery[1] == 0 {
		t.Fatalf("both queries must produce windows: %v", perQuery)
	}
}

func TestWindowAggregateRequiresKeyed(t *testing.T) {
	env := streamline.New()
	src := streamline.From(env, "src", streamline.KeyedSlice(keyedRecords(10)))
	streamline.WindowAggregate(src, "win", streamline.Query(streamline.Tumbling(5), streamline.Sum()))
	if err := env.Execute(context.Background()); err == nil {
		t.Fatalf("unkeyed WindowAggregate must fail at build")
	}
}

func TestWindowAggregateRequiresQueries(t *testing.T) {
	env := streamline.New()
	src := streamline.From(env, "src", streamline.KeyedSlice(keyedRecords(10)))
	streamline.WindowAggregate(streamline.KeyByRecord(src, "k", byRecordKey), "win")
	if err := env.Execute(context.Background()); err == nil {
		t.Fatalf("WindowAggregate without queries must fail at build")
	}
}

// Combiner correctness: all three modes must agree.
func TestCombinerModesAgree(t *testing.T) {
	for _, mode := range []streamline.CombinerMode{streamline.CombinerOff, streamline.CombinerOn, streamline.CombinerAuto} {
		env := streamline.New(streamline.WithParallelism(2), streamline.WithCombiner(mode))
		src := streamline.From(env, "src", streamline.KeyedSlice(keyedRecords(500)))
		out := streamline.Collect(streamline.ReduceByKey(streamline.KeyByRecord(src, "key", byRecordKey), "sum", add, false), "out")
		execute(t, env.Execute)
		assertSums(t, sumByKey(out), wantSums(500))
	}
}

func TestSinkFunc(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	var n int
	streamline.Sink(streamline.From(env, "src", streamline.KeyedSlice(keyedRecords(25))), "count",
		func(streamline.Keyed[float64]) { n++ })
	execute(t, env.Execute)
	if n != 25 {
		t.Fatalf("sink saw %d records", n)
	}
	if node := nodeNamed(t, env, "count"); !node.Pinned || node.Parallelism != 1 {
		t.Fatalf("sink node must be pinned at parallelism 1, got %+v", node)
	}
}

func TestJoinWindowCountsAllPairs(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(2))
	gen := func(name string, n, stride int64, v float64) *streamline.Stream[float64] {
		src := streamline.From(env, name, streamline.Generator(n, func(_, _ int, i int64) streamline.Keyed[float64] {
			return streamline.Keyed[float64]{Ts: i * stride, Key: uint64(i % 3), Value: v}
		}), streamline.WithSourceParallelism(1))
		return streamline.KeyByRecord(src, "k", byRecordKey)
	}
	impressions, costs := gen("imps", 90, 1, 1), gen("costs", 30, 3, 2)
	out := streamline.Collect(streamline.JoinWindow(impressions, "join", costs, 30), "out")
	execute(t, env.Execute)

	count := 0
	for _, k := range out.Records() {
		if p := k.Value; p.Left != 1 || p.Right != 2 {
			t.Fatalf("bad pair %+v", p)
		}
		count++
	}
	// Per window [w, w+30) and key k: lefts are the i < 90 in the window
	// with i%3 == k; rights the i < 30 with i*3 in the window and i%3 == k.
	want := 0
	for w := int64(0); w < 90; w += 30 {
		for k := int64(0); k < 3; k++ {
			l, r := 0, 0
			for i := int64(0); i < 90; i++ {
				if i >= w && i < w+30 && i%3 == k {
					l++
				}
			}
			for i := int64(0); i < 30; i++ {
				if i*3 >= w && i*3 < w+30 && i%3 == k {
					r++
				}
			}
			want += l * r
		}
	}
	if count != want {
		t.Fatalf("joined %d pairs, want %d", count, want)
	}
}

func TestJoinWindowRequiresKeyed(t *testing.T) {
	env := streamline.New()
	a := streamline.From(env, "a", streamline.KeyedSlice(keyedRecords(10)))
	b := streamline.From(env, "b", streamline.KeyedSlice(keyedRecords(10)))
	streamline.JoinWindow(a, "j", b, 10)
	if err := env.Execute(context.Background()); err == nil {
		t.Fatalf("unkeyed join must fail at build")
	}
}

// windowSums collects (key, window start) -> sum across result handles; a
// replayed window overwrites its earlier emission (idempotent).
func windowSums(outs ...*streamline.Results[streamline.WindowResult]) map[[2]int64]float64 {
	res := map[[2]int64]float64{}
	for _, out := range outs {
		for _, k := range out.Records() {
			res[[2]int64{int64(k.Key), k.Value.Start}] = k.Value.Value
		}
	}
	return res
}

func assertWindows(t *testing.T, got, want map[[2]int64]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d windows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("window %v = %v, want %v", k, got[k], v)
		}
	}
}

// Kill/restore on one Env definition: the pipeline is rebuilt and resumed
// from the last checkpoint; dedup'd window results must equal a
// failure-free run.
func TestExecuteRestoredEquivalence(t *testing.T) {
	const n = 5000
	build := func(perSec float64, opts ...streamline.Option) (*streamline.Env, *streamline.Results[streamline.WindowResult]) {
		env := streamline.New(append([]streamline.Option{streamline.WithParallelism(2)}, opts...)...)
		var gen streamline.Source[float64] = streamline.Generator(n, func(sub, par int, i int64) streamline.Keyed[float64] {
			global := i*int64(par) + int64(sub)
			return streamline.Keyed[float64]{Ts: global, Key: uint64(global % 4), Value: 1}
		})
		if perSec > 0 {
			gen = streamline.Paced(gen, perSec)
		}
		src := streamline.From(env, "gen", gen, streamline.WithSourceParallelism(2))
		win := streamline.WindowAggregate(streamline.KeyByRecord(src, "k", byRecordKey), "win",
			streamline.Query(streamline.Tumbling(100), streamline.Sum()))
		return env, streamline.Collect(win, "out")
	}

	refEnv, refOut := build(0)
	execute(t, refEnv.Execute)
	want := windowSums(refOut)

	backend := streamline.NewMemoryBackend(0)
	crashEnv, crashOut := build(10_000, streamline.WithCheckpointing(backend, 20*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	err := crashEnv.Execute(ctx)
	cancel()
	if err == nil {
		t.Skip("job finished before kill on this machine")
	}
	snap, ok, _ := backend.Latest()
	if !ok {
		t.Skip("no checkpoint before kill")
	}
	resumeEnv, resumeOut := build(0, streamline.WithCheckpointing(backend, 20*time.Millisecond))
	if err := resumeEnv.ExecuteRestored(context.Background(), snap); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	assertWindows(t, windowSums(crashOut, resumeOut), want)
}

// TestExecuteRestoredRescaled kills a checkpointing pipeline with its keyed
// window at parallelism 2 and recovers it at parallelism 1 and at 4: the
// snapshot's key-group blobs redistribute to the new subtask ranges and the
// deduplicated window results must equal a failure-free run. The generator
// source keeps parallelism 2 (its positions are per subtask); only the keyed
// stage rescales.
func TestExecuteRestoredRescaled(t *testing.T) {
	const n = 5000
	build := func(parallelism int, perSec float64, backend streamline.Backend) (*streamline.Env, *streamline.Results[streamline.WindowResult]) {
		opts := []streamline.Option{streamline.WithParallelism(parallelism)}
		if backend != nil {
			opts = append(opts, streamline.WithCheckpointing(backend, 20*time.Millisecond))
		}
		env := streamline.New(opts...)
		var gen streamline.Source[float64] = streamline.Generator(n, func(sub, par int, i int64) streamline.Keyed[float64] {
			global := i*int64(par) + int64(sub)
			return streamline.Keyed[float64]{Ts: global, Key: uint64(global % 6), Value: 1}
		})
		if perSec > 0 {
			gen = streamline.Paced(gen, perSec)
		}
		src := streamline.From(env, "gen", gen, streamline.WithSourceParallelism(2))
		win := streamline.WindowAggregate(streamline.KeyByRecord(src, "k", byRecordKey), "win",
			streamline.Query(streamline.Tumbling(100), streamline.Sum()))
		return env, streamline.Collect(win, "out")
	}

	refEnv, refOut := build(2, 0, nil)
	execute(t, refEnv.Execute)
	want := windowSums(refOut)

	for _, restorePar := range []int{1, 4} {
		t.Run(fmt.Sprintf("to-parallelism-%d", restorePar), func(t *testing.T) {
			backend := streamline.NewMemoryBackend(0)
			crashEnv, crashOut := build(2, 10_000, backend)
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
			err := crashEnv.Execute(ctx)
			cancel()
			if err == nil {
				t.Skip("job finished before kill on this machine")
			}
			snap, ok, _ := backend.Latest()
			if !ok {
				t.Skip("no checkpoint before kill")
			}
			resumeEnv, resumeOut := build(restorePar, 0, backend)
			if err := resumeEnv.ExecuteRestored(context.Background(), snap); err != nil {
				t.Fatalf("restored run at parallelism %d: %v", restorePar, err)
			}
			assertWindows(t, windowSums(crashOut, resumeOut), want)
		})
	}
}

// TestExecuteRestoredRescaledFileSource kills a checkpointing pipeline whose
// source is a splittable file scan at parallelism 2 and recovers it with the
// source at parallelism 1 and at 4: the snapshot's split state
// redistributes across the new source subtasks (seek-based resume, no
// re-scan), the keyed window state redistributes by key group, and the
// deduplicated window results must equal a failure-free run.
func TestExecuteRestoredRescaledFileSource(t *testing.T) {
	const n = 6000
	path := filepath.Join(t.TempDir(), "history.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(f, "%d\n", i)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	build := func(srcPar int, perSec float64, backend streamline.Backend) (*streamline.Env, *streamline.Results[streamline.WindowResult]) {
		opts := []streamline.Option{streamline.WithParallelism(2)}
		if backend != nil {
			opts = append(opts, streamline.WithCheckpointing(backend, 20*time.Millisecond))
		}
		env := streamline.New(opts...)
		var scan streamline.Source[int64] = streamline.JSONL[int64](path, streamline.WithSplitSize(2048))
		if perSec > 0 {
			scan = streamline.Paced(scan, perSec)
		}
		src := streamline.From(env, "scan", scan, streamline.WithSourceParallelism(srcPar),
			streamline.WithTimestamps(func(i int64) int64 { return i }))
		ones := streamline.Map(src, "one", func(int64) float64 { return 1 })
		keyed := streamline.KeyByRecord(ones, "k", func(k streamline.Keyed[float64]) uint64 { return uint64(k.Ts % 5) })
		win := streamline.WindowAggregate(keyed, "win", streamline.Query(streamline.Tumbling(100), streamline.Sum()))
		return env, streamline.Collect(win, "out")
	}

	refEnv, refOut := build(2, 0, nil)
	execute(t, refEnv.Execute)
	want := windowSums(refOut)
	if len(want) == 0 {
		t.Fatalf("reference run produced no windows")
	}

	for _, restorePar := range []int{1, 4} {
		t.Run(fmt.Sprintf("source-to-parallelism-%d", restorePar), func(t *testing.T) {
			backend := streamline.NewMemoryBackend(0)
			crashEnv, crashOut := build(2, 12_000, backend)
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
			err := crashEnv.Execute(ctx)
			cancel()
			if err == nil {
				t.Skip("job finished before kill on this machine")
			}
			snap, ok, _ := backend.Latest()
			if !ok {
				t.Skip("no checkpoint before kill")
			}
			resumeEnv, resumeOut := build(restorePar, 0, backend)
			if err := resumeEnv.ExecuteRestored(context.Background(), snap); err != nil {
				t.Fatalf("restored run with source parallelism %d: %v", restorePar, err)
			}
			assertWindows(t, windowSums(crashOut, resumeOut), want)
		})
	}
}
