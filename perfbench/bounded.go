package main

import (
	"fmt"
	"time"
)

// A bounded workload runs the same closed job over and over: one job reads
// the whole seeded input, and the next starts when it has finished. Its
// end-to-end metrics are medians over the jobs of one run.

// variant selects a physical configuration of a bounded job.
type variant struct {
	tr          *tracer // nil: untraced
	parallelism int     // source and operator parallelism
	inProcess   bool    // replay-tcp: run without workers
}

var standard = variant{parallelism: 2}

// verifyFn compares a finished job's output with the oracle, returning how
// many output records were expected and how many were missing or wrong.
type verifyFn func() (expected, bad int64)

// boundedWorkload is what a bounded workload supplies to the runner.
type boundedWorkload struct {
	records int64 // input records per job
	// job builds the plan, executes it, and returns the wall time of both
	// together; verification runs after the runner's meters have stopped.
	job   func(v variant) (time.Duration, verifyFn, error)
	setup func() (time.Duration, error)
	// layers, if set, adds the workload's own per-layer metrics of a traced
	// run: baseline is the median untraced job time at the standard variant,
	// and records the input records of the traced jobs.
	layers func(res *result, chk *check, baseline time.Duration, records int64)
}

// minJobs is the fewest jobs a measured interval runs, however long they
// take, so that every median has at least three samples.
const minJobs = 3

type jobSamples struct {
	walls, cpus, allocs []float64
}

// runJobs runs jobs of variant v until the interval is over and at least
// n jobs ran, verifying each.
func runJobs(w *boundedWorkload, chk *check, v variant, interval time.Duration, n int) jobSamples {
	var s jobSamples
	deadline := time.Now().Add(interval)
	for len(s.walls) < n || time.Now().Before(deadline) {
		before := read()
		wall, verify, err := w.job(v)
		iv := since(before)
		var expected, bad int64
		if verify != nil {
			expected, bad = verify()
		}
		chk.job(err, expected, bad, fmt.Sprintf("job %d", len(s.walls)+1))
		s.walls = append(s.walls, wall.Seconds())
		s.cpus = append(s.cpus, float64(iv.cpu.Microseconds())/float64(w.records))
		s.allocs = append(s.allocs, float64(iv.allocs)/float64(w.records))
	}
	return s
}

func runBounded(cfg config, w *boundedWorkload, chk *check) *result {
	res := &result{}
	interval := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		setup := measureSetup(chk, w.setup)
		runJobs(w, chk, standard, 0, 1) // warm the page cache and the heap
		heap := startHeapSampler()
		s := runJobs(w, chk, standard, interval, minJobs)
		peak := heap.Stop()
		res.set("throughput_rps", float64(w.records)/median(s.walls), "1/s")
		res.set("latency_p50_ms", median(s.walls)*1e3, "ms")
		res.set("latency_p99_ms", quantile(s.walls, 0.99)*1e3, "ms")
		res.set("cpu_us_per_record", median(s.cpus), "us")
		res.set("allocs_per_record", median(s.allocs), "count")
		res.set("peak_heap_mb", peak, "MiB")
		res.set("setup_s", setup, "s")
		fmt.Printf("  latency samples: %d jobs of %d input records\n", len(s.walls), w.records)
		return res
	}

	initLayers(res)
	runJobs(w, chk, standard, 0, 1)
	base := runJobs(w, chk, standard, 0, minJobs)
	baseline := time.Duration(median(base.walls) * float64(time.Second))

	tr := newTracer()
	traced := standard
	traced.tr = tr
	prof, err := startCPUProfile()
	if err != nil {
		chk.fail("cpu profile", err)
		return res
	}
	before := read()
	s := runJobs(w, chk, traced, interval, 2)
	iv := since(before)
	shares, samples, err := prof.stop()
	if err != nil {
		chk.fail("cpu profile", err)
	}
	records := w.records * int64(len(s.walls))
	commonLayers(res, tr, iv, shares, samples, records)
	res.set("trace.overhead", median(s.walls)/baseline.Seconds(), "ratio")
	res.set("latency.samples", float64(len(base.walls)), "count")

	p1 := runJobs(w, chk, variant{parallelism: 1}, 0, minJobs)
	res.set("runtime.p1_ratio", median(p1.walls)/baseline.Seconds(), "ratio")
	if w.layers != nil {
		w.layers(res, chk, baseline, records)
	}
	if err := tr.write(cfg.outPath("spans.json")); err != nil {
		chk.fail("write spans", err)
	}
	return res
}
