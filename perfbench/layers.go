package main

// perLayer lists every per-layer metric with its unit; BENCHMARK.json
// lists the same names. A traced run reports all of them for every
// workload; one that does not apply to the workload (no checkpoints, no
// TCP, no generator) reads 0.
var perLayer = []struct{ name, unit string }{
	{"cpu.streamline", "share"},
	{"cpu.core", "share"},
	{"cpu.dataflow", "share"},
	{"cpu.windowing", "share"},
	{"cpu.state", "share"},
	{"cpu.seglog", "share"},
	{"cpu.transport", "share"},
	{"cpu.metrics", "share"},
	{"cpu.codec", "share"},
	{"cpu.go_gc", "share"},
	{"cpu.go_sched", "share"},
	{"cpu.bench", "share"},
	{"cpu.other", "share"},
	{"profile.samples", "count"},
	{"source.read_ns_per_record", "ns"},
	{"udf.busy_share", "share"},
	{"udf.ns_per_record", "ns"},
	{"state.checkpoints", "count"},
	{"state.persist_ms_max", "ms"},
	{"state.snapshot_bytes", "bytes"},
	{"state.p99_ckpt_ratio", "ratio"},
	{"seglog.appended_bytes_per_record", "bytes"},
	{"seglog.scanned_bytes_per_record", "bytes"},
	{"net.tx_bytes_per_record", "bytes"},
	{"net.inproc_ratio", "ratio"},
	{"go.gc_cycles_per_mrec", "count"},
	{"go.gc_pause_p99_ms", "ms"},
	{"go.sched_latency_p99_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"latency.samples", "count"},
	{"runtime.p1_ratio", "ratio"},
	{"trace.overhead", "ratio"},
}

func initLayers(res *result) {
	for _, m := range perLayer {
		res.set(m.name, 0, m.unit)
	}
}

// commonLayers fills the per-layer metrics every traced run measures the
// same way: CPU shares from the profile, the Go runtime's GC and scheduler
// figures over the traced interval, time inside Reader.Next and the user
// functions from the spans, and checkpoint figures from the Persist spans.
// records is the number of input records the traced interval processed.
func commonLayers(res *result, tr *tracer, iv interval, shares map[string]float64, samples int64, records int64) {
	for layer, share := range shares {
		res.set("cpu."+layer, share, "share")
	}
	res.set("profile.samples", float64(samples), "count")

	next := tr.total("source.next")
	res.set("source.read_ns_per_record", float64(next.busyNs)/float64(next.count), "ns")
	udfNs := tr.busyWithPrefix("udf.")
	res.set("udf.busy_share", float64(udfNs)/float64(iv.cpu.Nanoseconds()), "share")
	res.set("udf.ns_per_record", float64(udfNs)/float64(records), "ns")

	persist := tr.total("backend.persist")
	res.set("state.checkpoints", float64(persist.calls), "count")
	res.set("state.persist_ms_max", float64(persist.maxNs)/1e6, "ms")
	res.set("state.snapshot_bytes", float64(tr.maxAttr("backend.persist", "bytes")), "bytes")

	res.set("go.gc_cycles_per_mrec", float64(iv.gcCycles)/float64(records)*1e6, "count")
	res.set("go.gc_pause_p99_ms", histQuantile(iv.pauses, iv.pauseBuckets, 0.99)*1e3, "ms")
	res.set("go.sched_latency_p99_ms", histQuantile(iv.sched, iv.schedBuckets, 0.99)*1e3, "ms")
}
