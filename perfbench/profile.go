package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// CPU shares come from a runtime/pprof CPU profile of the traced interval.
// Each sample goes to one layer, found by walking its stack from the leaf
// outward and stopping at the first frame that names one:
//
//   - Go runtime GC work (mark, sweep, scavenge, write barriers, assists)
//     goes to go_gc, and scheduler work (select, channels, runtime locks,
//     parking, futexes, the scheduler loop) to go_sched, wherever it is
//     called from;
//   - encoding/json and encoding/gob frames go to codec;
//   - otherwise the innermost frame in a repo module names the layer:
//     streamline, core, dataflow, windowing (cutty, window, agg), state,
//     seglog, transport, metrics; the benchmark's own package is bench;
//   - a stack with none of these (other standard library, syscalls) is
//     other.
//
// The shares therefore add up to 1.

// cpuLayers is every layer a sample can go to, in report order.
var cpuLayers = []string{
	"streamline", "core", "dataflow", "windowing", "state", "seglog", "transport",
	"metrics", "codec", "go_gc", "go_sched", "bench", "other",
}

var repoLayers = map[string]string{
	"repro/streamline":         "streamline",
	"repro/internal/core":      "core",
	"repro/internal/dataflow":  "dataflow",
	"repro/internal/cutty":     "windowing",
	"repro/internal/window":    "windowing",
	"repro/internal/agg":       "windowing",
	"repro/internal/state":     "state",
	"repro/internal/seglog":    "seglog",
	"repro/internal/transport": "transport",
	"repro/internal/metrics":   "metrics",
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.scanframeworker",
	"runtime.greyobject", "runtime.findObject", "runtime.bgsweep", "runtime.sweepone",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.wbBufFlush", "runtime.bulkBarrierPreWrite", "runtime.gcWriteBarrier",
	"runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
	"runtime.(*scavengerState)", "runtime.deductSweepCredit", "runtime.gcFlushBgCredit",
	"runtime.GC", "runtime.gcResetMarkState", "runtime.forEachP",
}

var schedFrames = []string{
	"runtime.selectgo", "runtime.selectnbsend", "runtime.selectnbrecv", "runtime.chansend",
	"runtime.chanrecv", "runtime.closechan", "runtime.lock", "runtime.unlock", "runtime.lock2",
	"runtime.unlock2", "runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.mcall", "runtime.futex",
	"runtime.notesleep", "runtime.notewakeup", "runtime.notetsleep", "runtime.stealWork",
	"runtime.runqgrab", "runtime.runqsteal", "runtime.netpoll", "runtime.usleep",
	"runtime.osyield", "runtime.semacquire", "runtime.semrelease", "runtime.wakep",
	"runtime.startm", "runtime.stopm", "runtime.handoffp", "runtime.resetspinning",
	"runtime.gosched", "runtime.goschedImpl", "runtime.newproc", "runtime.goexit0",
	"runtime.execute", "runtime.sysmon", "runtime.sellock", "runtime.selunlock",
	"runtime.chanparkcommit", "runtime.selparkcommit", "runtime.checkTimers",
	"runtime.runtimer", "runtime.(*timers)", "runtime.(*timer)", "runtime.resettimer",
	"runtime.sync_runtime_Semacquire", "runtime.sync_runtime_Semrelease",
	"runtime.sync_runtime_SemacquireMutex", "runtime.internal_sync_runtime_SemacquireMutex",
	"sync.(*Mutex).lockSlow", "sync.(*Mutex).unlockSlow", "internal/sync.(*Mutex).lockSlow",
	"internal/sync.(*Mutex).unlockSlow", "sync.(*WaitGroup).Wait", "sync.(*Cond).Wait",
	"runtime.entersyscall", "runtime.exitsyscall", "runtime.reentersyscall",
}

func hasAnyPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// layerOf classifies one frame; "" means keep walking outward.
func layerOf(fn string) string {
	switch {
	case hasAnyPrefix(fn, gcFrames):
		return "go_gc"
	case hasAnyPrefix(fn, schedFrames):
		return "go_sched"
	case strings.HasPrefix(fn, "encoding/json.") || strings.HasPrefix(fn, "encoding/gob."):
		return "codec"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // generic type arguments may name other packages
	}
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	}
	return repoLayers[pkg]
}

// cpuProfile records a CPU profile of one interval.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns the share of samples per layer and the
// sample count.
func (p *cpuProfile) stop() (map[string]float64, int64, error) {
	pprof.StopCPUProfile()
	prof, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var n int64
	for _, s := range prof.samples {
		layer := "other"
	walk:
		for _, loc := range s.locs {
			for _, fn := range prof.frames[loc] {
				if l := layerOf(fn); l != "" {
					layer = l
					break walk
				}
			}
		}
		counts[layer] += s.count
		n += s.count
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		if n > 0 {
			shares[l] = float64(counts[l]) / float64(n)
		} else {
			shares[l] = 0
		}
	}
	return shares, n, nil
}

// ---- minimal profile.proto decoder ------------------------------------------

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples []profSample
	// frames maps a location id to its function names, innermost (inlined)
	// first.
	frames map[uint64][]string
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		samples []profSample
		locFns  = map[uint64][]uint64{}
		fnName  = map[uint64]int64{}
		strs    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			var vals []int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, w, v, b)
				case 2:
					for _, u := range appendUints(nil, w, v, b) {
						vals = append(vals, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = vals[0] // samples/count is the first sample type
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, frames: map[uint64][]string{}}
	for loc, fns := range locFns {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			if i := fnName[f]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.frames[loc] = names
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with the field number,
// wire type, and the varint value (wire type 0) or the bytes (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field given either unpacked (one
// varint) or packed (a run of varints).
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
