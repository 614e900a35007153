package main

import (
	"context"
	"strings"
	"sync"
	"time"

	"repro/streamline"
)

// atrest-wordcount: data at rest, one closed job at a time. A seeded JSONL
// file (8 Zipf words per line over a 20k vocabulary) is scanned in byte-range
// splits at source parallelism 2, split into words, keyed by word and
// counted at parallelism 2. The combiner is off, so the in-process hash
// exchange carries every word (8 records per input line). There are no
// checkpoints, windows, topic writes or TCP in this workload.

// keySums is the output of one keyed-reduce job: the value the sink
// received for each key. The sink callback runs on every sink subtask.
type keySums struct {
	mu  sync.Mutex
	got map[uint64]float64
	dup int64
}

func (w *keySums) add(k streamline.Keyed[float64]) {
	w.mu.Lock()
	if _, seen := w.got[k.Key]; seen {
		w.dup++
	}
	w.got[k.Key] = k.Value
	w.mu.Unlock()
}

// compareSums counts expected keys that are missing or hold the wrong
// value, plus output keys the oracle does not have and keys emitted twice.
func compareSums(want, got map[uint64]float64, dup int64) (expected, bad int64) {
	expected = int64(len(want))
	bad = dup
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			bad++
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad++
		}
	}
	return expected, bad
}

// buildWordCount builds the job over input at the variant's parallelism.
func buildWordCount(input string, v variant, out *keySums) *streamline.Env {
	env := streamline.New(
		streamline.WithParallelism(v.parallelism),
		streamline.WithCombiner(streamline.CombinerOff),
	)
	lines := streamline.From(env, "lines",
		traceSource(v.tr, streamline.JSONL[atRestLine](input)),
		streamline.WithSourceParallelism(v.parallelism))
	split := func(l atRestLine, em streamline.Emitter[string]) {
		for _, w := range strings.Fields(l.Text) {
			em.Emit(w)
		}
	}
	sink := out.add
	if v.tr != nil {
		// Time the user function's own work, not the downstream operators
		// each Emit runs: split first, then emit outside the span.
		b := v.tr.boundary("udf.split", -1)
		split = func(l atRestLine, em streamline.Emitter[string]) {
			start := nanotime()
			ws := strings.Fields(l.Text)
			b.observe(start, true)
			for _, w := range ws {
				em.Emit(w)
			}
		}
		sb := v.tr.boundary("udf.sink", -1)
		sink = func(k streamline.Keyed[float64]) {
			start := nanotime()
			out.add(k)
			sb.observe(start, true)
		}
	}
	words := streamline.FlatMap(lines, "split", split)
	keyed := streamline.KeyByString(words, "word", func(w string) string { return w })
	ones := streamline.Map(keyed, "one", func(string) float64 { return 1 })
	counts := streamline.ReduceByKey(ones, "count", func(acc, x float64) float64 { return acc + x }, false)
	streamline.Sink(counts, "out", sink)
	return env
}

func runAtRest(cfg config) (*result, *check) {
	chk := &check{}
	input, want, err := atRestInput(cfg)
	if err != nil {
		chk.fail("generate input", err)
		return nil, chk
	}
	empty, err := emptyFile(cfg)
	if err != nil {
		chk.fail("generate input", err)
		return nil, chk
	}
	ctx := context.Background()
	w := &boundedWorkload{
		records: atRestLines,
		job: func(v variant) (time.Duration, verifyFn, error) {
			out := &keySums{got: make(map[uint64]float64, len(want))}
			start := time.Now()
			env := buildWordCount(input, v, out)
			end := v.tr.beginJob("execute")
			err := env.Execute(ctx)
			end()
			wall := time.Since(start)
			return wall, func() (int64, int64) { return compareSums(want, out.got, out.dup) }, err
		},
		// Set-up is the job's fixed cost: plan build and Execute over an
		// empty file.
		setup: func() (time.Duration, error) {
			out := &keySums{got: map[uint64]float64{}}
			start := time.Now()
			err := buildWordCount(empty, standard, out).Execute(ctx)
			return time.Since(start), err
		},
	}
	return runBounded(cfg, w, chk), chk
}
