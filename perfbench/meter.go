package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Process-level readings taken at the edges of a measured interval: CPU
// time from getrusage, heap allocations and GC cycles from runtime/metrics,
// and the Go runtime's GC-pause and scheduling-latency histograms.
const (
	mAllocs     = "/gc/heap/allocs:objects"
	mTinyAllocs = "/gc/heap/tiny/allocs:objects"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCPauses   = "/sched/pauses/total/gc:seconds"
	mSchedLat   = "/sched/latencies:seconds"
	mHeapBytes  = "/memory/classes/heap/objects:bytes"
)

type reading struct {
	cpu      time.Duration
	allocs   uint64
	gcCycles uint64
	pauses   *metrics.Float64Histogram
	sched    *metrics.Float64Histogram
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func read() reading {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mTinyAllocs}, {Name: mGCCycles}, {Name: mGCPauses}, {Name: mSchedLat}}
	metrics.Read(s)
	return reading{
		cpu:      cpuTime(),
		allocs:   s[0].Value.Uint64() + s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		pauses:   s[3].Value.Float64Histogram(),
		sched:    s[4].Value.Float64Histogram(),
	}
}

// interval is the difference of two readings.
type interval struct {
	cpu              time.Duration
	allocs, gcCycles uint64
	pauses, sched    []uint64 // per-bucket count deltas
	pauseBuckets     []float64
	schedBuckets     []float64
}

func since(a reading) interval {
	b := read()
	return interval{
		cpu:          b.cpu - a.cpu,
		allocs:       b.allocs - a.allocs,
		gcCycles:     b.gcCycles - a.gcCycles,
		pauses:       histDelta(a.pauses, b.pauses),
		sched:        histDelta(a.sched, b.sched),
		pauseBuckets: b.pauses.Buckets,
		schedBuckets: b.sched.Buckets,
	}
}

func histDelta(a, b *metrics.Float64Histogram) []uint64 {
	d := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		d[i] = b.Counts[i] - a.Counts[i]
	}
	return d
}

// histQuantile returns the upper edge of the bucket holding the q-quantile
// of a runtime/metrics histogram delta, in seconds (0 when it is empty).
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= want {
			if hi := buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return buckets[i]
		}
	}
	return buckets[len(buckets)-1]
}

// heapSampler tracks the peak of heap object bytes (live and not yet swept)
// while it runs, reading runtime/metrics, which does not stop the world,
// every few milliseconds. It reports the peak above the heap live when it
// started, right after a GC: the benchmark's own inputs, oracle and sample
// buffers, allocated before the interval, are not counted.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	base uint64
	peak uint64
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	h.sample()
	h.base = h.peak
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: mHeapBytes}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// Stop ends sampling and returns the peak above the starting heap in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak-h.base) / (1 << 20)
}
