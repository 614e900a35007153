package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/streamline"
)

// replay-tcp: history replay in the distributed runtime. A seeded topic of
// compact float64 records keyed Zipf over 10k keys is replayed at source
// parallelism 2, keyed by the stored key and summed per key at parallelism
// 2 with the combiner off, across two in-process workers joined over
// loopback TCP. It is the only workload that uses the wire codec, the TCP
// mesh and segment-log reads.

// replayWorkers is the worker count of the distributed job.
const replayWorkers = 2

// jobTimeout bounds one job, so a wedged run fails instead of hanging.
const jobTimeout = 2 * time.Minute

func buildReplay(store *streamline.TopicStore, topic string, v variant, out *keySums, extra ...streamline.Option) *streamline.Env {
	opts := append([]streamline.Option{
		streamline.WithParallelism(v.parallelism),
		streamline.WithCombiner(streamline.CombinerOff),
	}, extra...)
	env := streamline.New(opts...)
	src := streamline.From(env, "replay",
		traceSource(v.tr, streamline.Topic[float64](store, topic)),
		streamline.WithSourceParallelism(v.parallelism))
	keyed := streamline.KeyByRecord(src, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
	sums := streamline.ReduceByKey(keyed, "sum", func(acc, x float64) float64 { return acc + x }, false)
	sink := out.add
	if v.tr != nil {
		b := v.tr.boundary("udf.sink", -1)
		sink = func(k streamline.Keyed[float64]) {
			start := nanotime()
			out.add(k)
			b.observe(start, true)
		}
	}
	streamline.Sink(sums, "out", sink)
	return env
}

// executeReplay runs one replay job, in-process or as the coordinator of
// two in-process workers that it starts with registries of its own, and
// returns the bytes the job's TCP data plane sent.
func executeReplay(ctx context.Context, store *streamline.TopicStore, topic string, v variant, out *keySums) (int64, error) {
	if v.inProcess {
		env := buildReplay(store, topic, v, out)
		end := v.tr.beginJob("execute")
		defer end()
		return 0, env.Execute(ctx)
	}
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	addrCh := make(chan string, 1)
	env := buildReplay(store, topic, v, out,
		streamline.WithWorkers(replayWorkers),
		streamline.WithOnListen(func(a string) { addrCh <- a }))
	regs := make([]*metrics.Registry, replayWorkers)
	errs := make([]error, replayWorkers)
	var wg sync.WaitGroup
	for i := range regs {
		regs[i] = metrics.NewRegistry()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var addr string
			select {
			case addr = <-addrCh:
				addrCh <- addr // for the next worker
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			errs[i] = transport.RunWorker(ctx, addr, regs[i], func(string, []string) (*dataflow.Graph, bool, error) {
				wenv := buildReplay(store, topic, v, &keySums{got: map[uint64]float64{}},
					streamline.WithWorkers(replayWorkers))
				if err := wenv.Core().BuildErr(); err != nil {
					return nil, false, err
				}
				return wenv.Core().Graph(), wenv.Core().Chaining(), nil
			})
		}(i)
	}
	end := v.tr.beginJob("execute_distributed")
	err := env.ExecuteDistributed(ctx)
	end()
	if err != nil {
		cancel() // release workers still waiting for the coordinator
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil && err == nil {
			err = fmt.Errorf("worker %d: %w", i+1, werr)
		}
	}
	tx := counterSum(env.Metrics(), ".tx_bytes")
	for _, r := range regs {
		tx += counterSum(r, ".tx_bytes")
	}
	return tx, err
}

// counterSum adds up every counter of a registry whose name ends in suffix.
// The registry has no iterator; its text rendering lists every metric as
// "<kind> <name> <value>".
func counterSum(r *metrics.Registry, suffix string) int64 {
	var buf bytes.Buffer
	r.WriteTo(&buf)
	var sum int64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "counter" && strings.HasSuffix(f[1], suffix) {
			if n, err := strconv.ParseInt(f[2], 10, 64); err == nil {
				sum += n
			}
		}
	}
	return sum
}

func runReplay(cfg config) (*result, *check) {
	chk := &check{}
	dir, want, err := replayInput(cfg)
	if err != nil {
		chk.fail("generate input", err)
		return nil, chk
	}
	ctx := context.Background()

	store, err := streamline.OpenTopicStore(dir)
	if err != nil {
		chk.fail("open store", err)
		return nil, chk
	}
	defer store.Close()
	scanned := store.Metrics().Counter("topic." + historyTopic + ".scanned_bytes")
	var tracedTx, tracedScanned int64
	w := &boundedWorkload{
		records: replayRecords,
		job: func(v variant) (time.Duration, verifyFn, error) {
			out := &keySums{got: make(map[uint64]float64, len(want))}
			scan0 := scanned.Value()
			start := time.Now()
			tx, err := executeReplay(ctx, store, historyTopic, v, out)
			wall := time.Since(start)
			if v.tr != nil {
				tracedTx += tx
				tracedScanned += scanned.Value() - scan0
			}
			return wall, func() (int64, int64) { return compareSums(want, out.got, out.dup) }, err
		},
		// Set-up is the job's fixed cost: store open, plan build, the
		// workers joining, and the distributed job over an empty topic. It
		// opens a handle of its own; the run's handle never reads that topic.
		setup: func() (time.Duration, error) {
			start := time.Now()
			st, err := streamline.OpenTopicStore(dir)
			if err != nil {
				return 0, err
			}
			_, err = executeReplay(ctx, st, emptyTopic, standard, &keySums{got: map[uint64]float64{}})
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			return time.Since(start), err
		},
	}
	w.layers = func(res *result, chk *check, baseline time.Duration, records int64) {
		res.set("net.tx_bytes_per_record", float64(tracedTx)/float64(records), "bytes")
		res.set("seglog.scanned_bytes_per_record", float64(tracedScanned)/float64(records), "bytes")
		s := runJobs(w, chk, variant{parallelism: standard.parallelism, inProcess: true}, 0, minJobs)
		res.set("net.inproc_ratio", median(s.walls)/baseline.Seconds(), "ratio")
	}
	return runBounded(cfg, w, chk), chk
}
