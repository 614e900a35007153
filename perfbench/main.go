// Command perfbench is the repository benchmark. It runs one of three
// workloads through the public streamline API, checks every output record
// against a reference it computes itself from the same seed, and prints the
// metrics of the run by name and unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// instrumentation in the program's path. With -trace 1 the run is a traced
// run and the metrics are the per-layer ones. See README.md for the
// workloads, the metrics and the reasons behind them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Seeds. DefaultSeed is the one to use while developing a change; a claim
// must also hold on HeldOutSeed, which is not used while writing it.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is the benchmark's own directory tree: cached inputs under
	// inputs/, scratch stores under work/, traces and profiles under out/.
	dir string
}

func (c config) inputDir() string {
	return filepath.Join(c.dir, "inputs", fmt.Sprintf("seed-%d", c.seed))
}

// scratch returns a fresh, empty directory for one job's stores.
func (c config) scratch(name string) (string, error) {
	d := filepath.Join(c.dir, "work", c.workload, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

func (c config) outPath(suffix string) string {
	return filepath.Join(c.dir, "out", fmt.Sprintf("%s-seed%d-%s", c.workload, c.seed, suffix))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric. A ratio over an empty measurement (a failed run)
// reads 0 rather than NaN or Inf, which JSON cannot carry.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check accumulates output verification: attempted counts every expected
// output record plus every job run; failed counts expected records that are
// missing or wrong plus every job that returned an error.
type check struct {
	attempted, failed int64
	firstErr          string
}

func (c *check) job(err error, expected, bad int64, what string) {
	c.attempted += expected + 1
	c.failed += bad
	if err != nil {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = fmt.Sprintf("%s: %v", what, err)
		}
	} else if bad > 0 && c.firstErr == "" {
		c.firstErr = fmt.Sprintf("%s: %d of %d output records missing or wrong", what, bad, expected)
	}
}

func (c *check) fail(what string, err error) {
	c.job(err, 0, 0, what)
}

// workloads maps each workload name to its runner. A runner returns the
// result of one invocation; it never panics on a failed job but counts it.
var workloads = map[string]func(config) (*result, *check){
	"atrest-wordcount": runAtRest,
	"inmotion-windows": runInMotion,
	"replay-tcp":       runReplay,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: atrest-wordcount, inmotion-windows or replay-tcp")
	flag.Int64Var(&cfg.seed, "seed", DefaultSeed, fmt.Sprintf("input seed (default seed %d, held-out seed %d)", DefaultSeed, HeldOutSeed))
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the measured interval of the run lasts")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: traced run, per-layer metrics")
	flag.StringVar(&cfg.dir, "workdir", ".bench_build", "directory for cached inputs, scratch stores and traces")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(cfg.dir, "out"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := useInputDir(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: input cache:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d %s/%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
	res, chk := run(cfg)
	if res == nil {
		res = &result{}
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	if res.Attempted < 1 {
		res.Attempted, res.Failed = 1, 1
	}
	res.Correct = res.Failed == 0
	if chk.firstErr != "" {
		fmt.Println("FAILED:", chk.firstErr)
	}
	printHuman(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printHuman(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  %-36s %14.6g (failed %d of %d attempted)\n", "failed_ratio", ratio, r.Failed, r.Attempted)
}

// ---- statistics ------------------------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// setupReps is how many times each workload's fixed per-job cost is
// measured; setup_s reports the median.
const setupReps = 25

// measureSetup runs one set-up repetition setupReps times and returns the
// median in seconds.
func measureSetup(chk *check, once func() (time.Duration, error)) float64 {
	var ds []time.Duration
	for i := 0; i < setupReps; i++ {
		d, err := once()
		if err != nil {
			chk.fail("set-up", err)
			continue
		}
		ds = append(ds, d)
	}
	return median(seconds(ds))
}
