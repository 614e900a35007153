package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/streamline"
)

// inmotion-windows: data in motion under an open loop. One generator
// goroutine sends 50k events/s in 1 ms ticks into a Channel source, stamping
// each event's Ts with its tick's due time in ms; keys are Zipf over 1000.
// The stream branches: one branch Persists every event to a topic (fsync
// never), the other keys the events and runs a shared tumbling-sum and
// sliding-count WindowAggregate. FileBackend checkpoints run every second.
// The rate is below saturation, so the run measures result latency and the
// CPU each event costs, not the highest rate.

// motionChanBuffer is the channel between generator and source: 100 ms of
// input, so a stall shorter than that delays results but not the generator.
const motionChanBuffer = eventsPerTick * 100

// windowOracle is the reference output of one run: the sum and count of
// every (query, key, window), in dense arrays indexed by query (0 tumbling
// sum, 1 sliding count), key and window start ÷ 100 ms. A zero count means
// the engine must not emit that window.
type windowOracle struct {
	buckets int
	value   []float64
	count   []int64
	total   int64 // events sent
}

func (o *windowOracle) slot(q, key int, start int64) (int, bool) {
	b := start / tumblingSize
	if q < 0 || q > 1 || key < 0 || key >= inMotionKeys || start%tumblingSize != 0 || b < 0 || b >= int64(o.buckets) {
		return 0, false
	}
	i := (q*inMotionKeys+key)*o.buckets + int(b)
	return i, o.count[i] > 0
}

// newWindowOracle computes per-key tumbling sums and counts from the event
// sequence, and each sliding count as the sum of the tumbling counts it
// spans (the slide equals the tumbling size).
func newWindowOracle(ev motionEvents, ticks int) *windowOracle {
	buckets := (ticks + tumblingSize - 1) / tumblingSize
	o := &windowOracle{
		buckets: buckets,
		value:   make([]float64, 2*inMotionKeys*buckets),
		count:   make([]int64, 2*inMotionKeys*buckets),
		total:   int64(len(ev.keys)),
	}
	for i := range ev.keys {
		c := int(ev.keys[i])*buckets + (i/eventsPerTick)/tumblingSize
		o.value[c] += float64(ev.vals[i])
		o.count[c]++
	}
	// A sliding window starting at bucket s spans buckets s..s+span-1.
	// Sliding windows start at event time 0 or later, like the engine's.
	span := slidingSize / slidingSlide
	for key := 0; key < inMotionKeys; key++ {
		row := o.count[key*buckets : (key+1)*buckets]
		out := (inMotionKeys + key) * buckets
		for s := 0; s < buckets; s++ {
			var n int64
			for b := s; b < min(s+span, buckets); b++ {
				n += row[b]
			}
			o.value[out+s], o.count[out+s] = float64(n), n
		}
	}
	return o
}

// motionSink receives the window results of one run: it checks each
// against the oracle and records its latency, from the due time of the
// last event that could fall in the window to its arrival here.
type motionSink struct {
	o     *windowOracle
	t0    int64 // nanotime of tick 0's due time
	ticks int64

	mu         sync.Mutex
	seen       []int32
	bad        int64
	tumblingN  int64 // events counted by tumbling results (late drops show here)
	latencyMs  []float64
	unexpected int64
}

func (s *motionSink) add(k streamline.Keyed[streamline.WindowResult]) {
	recv := nanotime()
	r := k.Value
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.QueryID == 0 {
		s.tumblingN += r.Count
	}
	i, ok := s.o.slot(r.QueryID, int(k.Key), r.Start)
	if !ok {
		s.unexpected++
		return
	}
	s.seen[i]++
	if s.o.value[i] != r.Value || s.o.count[i] != r.Count {
		s.bad++
	}
	// Windows ending after the last tick fire only at end of stream.
	if r.End <= s.ticks {
		due := s.t0 + (r.End-1)*int64(time.Millisecond)
		s.latencyMs = append(s.latencyMs, float64(recv-due)/1e6)
	}
}

// verify returns expected results and those missing, wrong, duplicated or
// unexpected.
func (s *motionSink) verify() (expected, bad int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bad = s.bad + s.unexpected
	for i, n := range s.seen {
		if s.o.count[i] > 0 {
			expected++
			if n != 1 {
				bad++
			}
		}
	}
	return expected, bad
}

// motionRun is what one open-loop run measured.
type motionRun struct {
	iv        interval
	wall      time.Duration
	latencyMs []float64
	genLagMs  []float64
	appended  int64 // records the Persist branch appended
	appendedB int64
	err       error
}

// buildInMotion builds the job over the channel, persisting into store and
// checkpointing into backend (nil: no checkpoints).
func buildInMotion(ch <-chan streamline.Keyed[float64], store *streamline.TopicStore, backend streamline.Backend, tr *tracer, sink func(streamline.Keyed[streamline.WindowResult])) *streamline.Env {
	opts := []streamline.Option{streamline.WithParallelism(2)}
	if backend != nil {
		opts = append(opts, streamline.WithCheckpointing(traceBackend(tr, backend), checkpointEvery*time.Millisecond))
	}
	env := streamline.New(opts...)
	// Events of one tick share a timestamp, so the watermark trails the
	// newest timestamp by one tick: the rest of the tick is not late.
	events := streamline.From(env, "events", traceSource(tr, streamline.Channel(ch)),
		streamline.WithSourceParallelism(1), streamline.WithWatermarkLag(inMotionTick))
	streamline.Persist(events, store, "events")
	keyed := streamline.KeyByRecord(events, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
	windows := streamline.WindowAggregate(keyed, "windows",
		streamline.Query(streamline.Tumbling(tumblingSize), streamline.Sum()),
		streamline.Query(streamline.Sliding(slidingSize, slidingSlide), streamline.Count()))
	if tr != nil {
		b := tr.boundary("udf.sink", -1)
		inner := sink
		sink = func(k streamline.Keyed[streamline.WindowResult]) {
			start := nanotime()
			inner(k)
			b.observe(start, true)
		}
	}
	streamline.Sink(windows, "out", sink)
	return env
}

// openStores opens a topic store and, when checkpoint is set, a file
// backend, both under dir (a fresh directory from config.scratch).
func openStores(dir string, checkpoint bool) (*streamline.TopicStore, streamline.Backend, error) {
	var backend streamline.Backend
	if checkpoint {
		var err error
		if backend, err = streamline.NewFileBackend(filepath.Join(dir, "checkpoints")); err != nil {
			return nil, nil, err
		}
	}
	store, err := streamline.OpenTopicStore(filepath.Join(dir, "topics"), streamline.WithFsync(streamline.FsyncNever, 0))
	return store, backend, err
}

// runOpenLoop runs the generator against the job for len(ticks) ms and
// checks the output.
func runOpenLoop(cfg config, ev motionEvents, o *windowOracle, ticks int, tr *tracer, checkpoint bool, chk *check) motionRun {
	var run motionRun
	dir, err := cfg.scratch("run")
	if err != nil {
		chk.fail("scratch dir", err)
		run.err = err
		return run
	}
	store, backend, err := openStores(dir, checkpoint)
	if err != nil {
		chk.fail("open stores", err)
		run.err = err
		return run
	}
	sink := &motionSink{o: o, ticks: int64(ticks), seen: make([]int32, len(o.count)),
		latencyMs: make([]float64, 0, 2*inMotionKeys*o.buckets)}
	ch := make(chan streamline.Keyed[float64], motionChanBuffer)
	env := buildInMotion(ch, store, backend, tr, sink.add)
	run.genLagMs = make([]float64, ticks)

	before := read()
	start := time.Now()
	sink.t0 = int64(start.Sub(epoch))
	stop := make(chan struct{}) // closed when the job has ended
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		defer close(ch)
		for i := 0; i < ticks; i++ {
			due := start.Add(time.Duration(i*inMotionTick) * time.Millisecond)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			run.genLagMs[i] = float64(time.Since(due)) / 1e6
			for j := i * eventsPerTick; j < (i+1)*eventsPerTick; j++ {
				select {
				case ch <- streamline.Keyed[float64]{Ts: int64(i * inMotionTick), Key: uint64(ev.keys[j]), Value: float64(ev.vals[j])}:
				case <-stop: // the job failed and stopped reading
					return
				}
			}
		}
	}()
	end := tr.beginJob("execute")
	run.err = env.Execute(context.Background())
	end()
	run.wall = time.Since(start)
	run.iv = since(before)
	close(stop)
	gen.Wait()

	reg := store.Metrics()
	run.appended = reg.Counter("topic.events.appended_records").Value()
	run.appendedB = reg.Counter("topic.events.appended_bytes").Value()
	if err := store.Close(); err != nil && run.err == nil {
		run.err = err
	}
	expected, bad := sink.verify()
	chk.job(run.err, expected, bad, "open-loop run")
	// Every event is counted once by the tumbling results and appended once
	// to the topic; a shortfall in the first is a late drop.
	if drops := o.total - sink.tumblingN; drops != 0 {
		chk.job(fmt.Errorf("%d events dropped as late (or counted twice)", drops), 0, 0, "late drops")
	}
	if run.appended != o.total {
		chk.job(fmt.Errorf("topic holds %d events, want %d", run.appended, o.total), 0, 0, "persist")
	}
	run.latencyMs = sink.latencyMs
	return run
}

func runInMotion(cfg config) (*result, *check) {
	chk := &check{}
	ticks := int(cfg.seconds*1000) / inMotionTick
	ev := inMotionInput(cfg.seed, ticks)
	o := newWindowOracle(ev, ticks)
	res := &result{}

	if !cfg.trace {
		// Set-up is the job's fixed cost: opening the topic store and the
		// checkpoint backend, plan build, and Execute over a closed channel.
		setup := measureSetup(chk, func() (time.Duration, error) {
			dir, err := cfg.scratch("setup")
			if err != nil {
				return 0, err
			}
			start := time.Now()
			store, backend, err := openStores(dir, true)
			if err != nil {
				return 0, err
			}
			ch := make(chan streamline.Keyed[float64])
			close(ch)
			err = buildInMotion(ch, store, backend, nil, func(streamline.Keyed[streamline.WindowResult]) {}).Execute(context.Background())
			if cerr := store.Close(); err == nil {
				err = cerr
			}
			return time.Since(start), err
		})
		heap := startHeapSampler()
		run := runOpenLoop(cfg, ev, o, ticks, nil, true, chk)
		peak := heap.Stop()
		n := float64(o.total)
		res.set("throughput_rps", n/run.wall.Seconds(), "1/s")
		res.set("latency_p50_ms", median(run.latencyMs), "ms")
		res.set("latency_p99_ms", quantile(run.latencyMs, 0.99), "ms")
		res.set("cpu_us_per_record", float64(run.iv.cpu.Microseconds())/n, "us")
		res.set("allocs_per_record", float64(run.iv.allocs)/n, "count")
		res.set("peak_heap_mb", peak, "MiB")
		res.set("setup_s", setup, "s")
		fmt.Printf("  latency samples: %d window results; generator lag p99 %.3f ms\n",
			len(run.latencyMs), quantile(run.genLagMs, 0.99))
		return res, chk
	}

	initLayers(res)
	base := runOpenLoop(cfg, ev, o, ticks, nil, true, chk)
	tr := newTracer()
	prof, err := startCPUProfile()
	if err != nil {
		chk.fail("cpu profile", err)
		return res, chk
	}
	traced := runOpenLoop(cfg, ev, o, ticks, tr, true, chk)
	shares, samples, err := prof.stop()
	if err != nil {
		chk.fail("cpu profile", err)
	}
	noCkpt := runOpenLoop(cfg, ev, o, ticks, nil, false, chk)

	commonLayers(res, tr, traced.iv, shares, samples, o.total)
	res.set("trace.overhead", traced.iv.cpu.Seconds()/base.iv.cpu.Seconds(), "ratio")
	res.set("state.p99_ckpt_ratio", quantile(base.latencyMs, 0.99)/quantile(noCkpt.latencyMs, 0.99), "ratio")
	res.set("seglog.appended_bytes_per_record", float64(traced.appendedB)/float64(traced.appended), "bytes")
	res.set("gen.lag_p99_ms", quantile(base.genLagMs, 0.99), "ms")
	res.set("latency.samples", float64(len(base.latencyMs)), "count")
	if err := tr.write(cfg.outPath("spans.json")); err != nil {
		chk.fail("write spans", err)
	}
	return res, chk
}
