package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/dataflow"
	"repro/internal/transport"
	"repro/streamline"
)

// The recover benchmark measures the self-healing runtime's MTTR: a
// supervised two-worker job over loopback TCP absorbs a series of injected
// worker kills, and each recovery is decomposed into detect (kill →
// coordinator observes the failure) and repair (detected → recovered epoch's
// producers unleashed, restored from the newest checkpoint). A replacement
// worker loop starts at each kill, so the measurement captures the
// supervisor's detect/restore path rather than the rejoin-window wait.
// Output is verified byte-identical to an unfaulted single-process run —
// a recovery that loses or duplicates records does not count as repaired.
// Results go to BENCH_recover.json via `streamline-bench -recover`.

// RecoverRestart is one injected kill and its measured recovery.
type RecoverRestart struct {
	Attempt    int     `json:"attempt"`
	Cause      string  `json:"cause"`
	DetectMs   float64 `json:"detect_ms"` // kill → failure observed
	RepairMs   float64 `json:"repair_ms"` // observed → epoch restored (downtime)
	TotalMs    float64 `json:"total_ms"`  // kill → epoch restored
	Workers    int     `json:"workers"`
	Checkpoint int64   `json:"checkpoint"`
}

// RecoverReport is the full fault series plus the MTTR summary.
type RecoverReport struct {
	Workers     int              `json:"workers"`
	Kills       int              `json:"kills"`
	Records     int64            `json:"records"`
	Checkpoints int64            `json:"checkpoints"`
	Restarts    []RecoverRestart `json:"restarts"`
	MTTRMeanMs  float64          `json:"mttr_mean_ms"` // mean detect→restored
	MTTRMaxMs   float64          `json:"mttr_max_ms"`
	OutputOK    bool             `json:"output_ok"`
}

// recoverEnv builds the benchmark pipeline: a paced deterministic generator,
// keyed 31 ways into a hash-shuffled sum that emits only at end of stream —
// so the collected output of a faulted run is comparable byte for byte with
// an unfaulted one.
func recoverEnv(n int64, perSec float64) (*streamline.Env, *streamline.Results[float64]) {
	env := streamline.New(streamline.WithParallelism(2))
	var gen streamline.Source[float64] = streamline.Generator(n, func(sub, par int, i int64) streamline.Keyed[float64] {
		global := i*int64(par) + int64(sub)
		return streamline.Keyed[float64]{Ts: global, Key: uint64(global % 31), Value: float64(global%7) + 1}
	})
	if perSec > 0 {
		gen = streamline.Paced(gen, perSec)
	}
	src := streamline.From(env, "gen", gen, streamline.WithSourceParallelism(2))
	keyed := streamline.KeyByRecord(src, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
	sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
	return env, streamline.Collect(sums, "out")
}

func renderRecoverSums(out *streamline.Results[float64]) string {
	lines := make([]string, 0, len(out.Records()))
	for _, r := range out.Records() {
		lines = append(lines, fmt.Sprintf("%d=%v", r.Key, r.Value))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Recover workload sizes: total generated records and the per-subtask pace
// that keeps the job alive long enough for the fault series.
const (
	RecoverRecords      int64 = 60_000
	RecoverPace               = 6_000.0
	RecoverKills              = 3
	RecoverQuickRecords int64 = 20_000
	RecoverQuickPace          = 5_000.0
	RecoverQuickKills         = 2
)

// Recover runs the fault series and measures every recovery.
func Recover(quick bool) (*RecoverReport, error) {
	n, pace, kills := RecoverRecords, RecoverPace, RecoverKills
	if quick {
		n, pace, kills = RecoverQuickRecords, RecoverQuickPace, RecoverQuickKills
	}
	const workers = 2

	refEnv, refOut := recoverEnv(n, 0)
	if err := refEnv.Execute(context.Background()); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	want := renderRecoverSums(refOut)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	backend := streamline.NewMemoryBackend(0)
	supEnv, supOut := recoverEnv(n, pace)
	sup, err := transport.NewSupervisor(transport.Config{
		Graph:             supEnv.Graph(),
		Chaining:          supEnv.Chaining(),
		Workers:           workers,
		Backend:           backend,
		Interval:          10 * time.Millisecond,
		Listener:          ln,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  300 * time.Millisecond,
	}, transport.SupervisionPolicy{
		MaxRestarts:  kills + 2,
		BaseBackoff:  10 * time.Millisecond,
		MaxBackoff:   50 * time.Millisecond,
		RejoinWindow: time.Second,
	})
	if err != nil {
		return nil, err
	}

	build := func(string, []string) (*dataflow.Graph, bool, error) {
		env, _ := recoverEnv(n, pace)
		return env.Graph(), env.Chaining(), nil
	}
	killer := chaos.NewKiller()
	nextWorker := 0
	startWorker := func() string {
		name := fmt.Sprintf("w%d", nextWorker)
		nextWorker++
		wctx, wcancel := context.WithCancel(ctx)
		killer.RegisterCancel(name, wcancel)
		go func() {
			defer wcancel()
			_ = transport.RunWorkerLoop(wctx, sup.Addr(), nil, build,
				transport.WithWorkerDialPolicy(transport.DialPolicy{BaseDelay: 5 * time.Millisecond, MaxWait: 30 * time.Second}))
		}()
		return name
	}
	victims := make([]string, 0, workers)
	for i := 0; i < workers; i++ {
		victims = append(victims, startWorker())
	}

	supErr := make(chan error, 1)
	go func() { supErr <- sup.Run(ctx) }()

	waitCkpts := func(min int64) error {
		deadline := time.Now().Add(time.Minute)
		for sup.CompletedCheckpoints() < min {
			select {
			case err := <-supErr:
				return fmt.Errorf("job finished before the fault series completed (checkpoints=%d, err=%v)", sup.CompletedCheckpoints(), err)
			case <-time.After(2 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("timed out waiting for checkpoint %d", min)
			}
		}
		return nil
	}

	killAt := make([]time.Time, 0, kills)
	for k := 0; k < kills; k++ {
		// A fresh checkpoint after the previous recovery proves the epoch is
		// live before the next kill lands.
		if err := waitCkpts(sup.CompletedCheckpoints() + 2); err != nil {
			return nil, err
		}
		victim := victims[k%len(victims)]
		killAt = append(killAt, time.Now())
		killer.Kill(victim)
		victims[k%len(victims)] = startWorker() // replacement rejoins the next epoch
		deadline := time.Now().Add(time.Minute)
		for len(sup.Stats()) < k+1 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("recovery %d never completed", k+1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if err := <-supErr; err != nil {
		return nil, fmt.Errorf("supervised run: %w", err)
	}

	rep := &RecoverReport{
		Workers:     workers,
		Kills:       kills,
		Records:     n,
		Checkpoints: sup.CompletedCheckpoints(),
		OutputOK:    renderRecoverSums(supOut) == want,
	}
	if !rep.OutputOK {
		return nil, fmt.Errorf("recovered output diverged from the unfaulted run")
	}
	for i, st := range sup.Stats() {
		if i >= len(killAt) {
			break
		}
		r := RecoverRestart{
			Attempt:    st.Attempt,
			Cause:      st.Cause,
			DetectMs:   st.FailedAt.Sub(killAt[i]).Seconds() * 1e3,
			RepairMs:   st.Downtime.Seconds() * 1e3,
			TotalMs:    st.RestoredAt.Sub(killAt[i]).Seconds() * 1e3,
			Workers:    st.Workers,
			Checkpoint: st.Checkpoint,
		}
		rep.Restarts = append(rep.Restarts, r)
		rep.MTTRMeanMs += r.RepairMs
		if r.RepairMs > rep.MTTRMaxMs {
			rep.MTTRMaxMs = r.RepairMs
		}
	}
	if len(rep.Restarts) > 0 {
		rep.MTTRMeanMs /= float64(len(rep.Restarts))
	}
	return rep, nil
}

// Table renders the report in the experiment-table format.
func (r *RecoverReport) Table() *Table {
	t := &Table{
		ID:     "RECOVER",
		Title:  "supervised recovery: detect and repair per injected worker kill",
		Claim:  "worker failures heal from the last checkpoint in well under a second",
		Header: []string{"kill", "cause", "detect", "repair", "total", "workers", "ckpt"},
	}
	for i, st := range r.Restarts {
		cause := st.Cause
		if len(cause) > 40 {
			cause = cause[:37] + "..."
		}
		t.Add(fmt.Sprintf("%d", i+1), cause,
			fmt.Sprintf("%.1fms", st.DetectMs), fmt.Sprintf("%.1fms", st.RepairMs),
			fmt.Sprintf("%.1fms", st.TotalMs), fmt.Sprintf("%d", st.Workers),
			fmt.Sprintf("%d", st.Checkpoint))
	}
	t.Note("%d kills over %s records, %d checkpoints; detect→restored MTTR mean %.1fms, max %.1fms; output byte-identical: %v",
		r.Kills, fmtCount(float64(r.Records)), r.Checkpoints, r.MTTRMeanMs, r.MTTRMaxMs, r.OutputOK)
	return t
}

// WriteJSON records the report (the recovery trajectory file
// BENCH_recover.json).
func (r *RecoverReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
