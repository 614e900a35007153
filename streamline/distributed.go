package streamline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// WorkerEnvVar, when set in a process's environment, marks it as a
// self-spawned worker: ExecuteDistributed in that process runs the worker
// share against the coordinator at the variable's address instead of
// coordinating, and exits when the share completes. Set automatically by
// WithSelfSpawn; never set it by hand unless you are building your own
// process manager.
const WorkerEnvVar = "STREAMLINE_WORKER"

// WithWorkers makes ExecuteDistributed split the job across n worker
// processes plus the coordinator (this process, which keeps all sinks and
// live local sources). n == 0 (the default) runs single-process.
func WithWorkers(n int) Option {
	return func(e *Env) { e.workers = n }
}

// WithListenAddr sets the coordinator's control listen address for
// distributed runs (default: an ephemeral loopback port). Use a fixed
// address when workers are started externally, e.g. "127.0.0.1:7171".
func WithListenAddr(addr string) Option {
	return func(e *Env) { e.listenAddr = addr }
}

// WithSelfSpawn makes ExecuteDistributed start its own workers by
// re-executing the current binary with WorkerEnvVar set. The re-executed
// process runs the same main, builds the same pipeline, and its
// ExecuteDistributed call becomes the worker share — after which the child
// process exits rather than returning into a main that expects results.
func WithSelfSpawn() Option {
	return func(e *Env) { e.selfSpawn = true }
}

// WithPipelineRef names the registered pipeline externally started generic
// workers (RunRegisteredWorker) rebuild, with the arguments to rebuild it
// from. Unnecessary with WithSelfSpawn.
func WithPipelineRef(name string, args ...string) Option {
	return func(e *Env) { e.pipeline, e.pipeArgs = name, args }
}

// WithOnListen registers a callback invoked with the coordinator's bound
// control address once it is listening — the way to learn an ephemeral
// port so externally started workers (or test goroutines) can dial in.
func WithOnListen(f func(addr string)) Option {
	return func(e *Env) { e.onListen = f }
}

// WithSupervision makes ExecuteDistributed self-healing: on any failure —
// worker crash, lost or blackholed connection, local error — the
// coordinator reloads the newest completed checkpoint from the backend and
// relaunches the job, respawning workers (self-spawn mode) or re-placing
// the lost subtasks onto the workers that rejoin (graceful degradation).
// maxRestarts bounds the budget (0: default 5; negative: no restarts);
// the optional backoff durations are the base delay before the first
// restart (doubling per consecutive restart, with jitter) and the delay
// cap. ExecuteSupervised implies this option with defaults.
func WithSupervision(maxRestarts int, backoff ...time.Duration) Option {
	return func(e *Env) {
		e.supervise = true
		e.maxRestarts = maxRestarts
		if len(backoff) > 0 {
			e.backoffBase = backoff[0]
		}
		if len(backoff) > 1 {
			e.backoffMax = backoff[1]
		}
	}
}

// WithHeartbeat tunes distributed failure detection: coordinator and
// workers ping every interval and declare a control stream silent for the
// timeout a dead peer — including the hung-but-open TCP case a plain
// connection drop never reports. Defaults: 1s interval, 4s timeout.
func WithHeartbeat(interval, timeout time.Duration) Option {
	return func(e *Env) { e.hbInterval, e.hbTimeout = interval, timeout }
}

// WithRejoinWindow bounds how long a supervised recovery waits for the full
// worker complement to redial before degrading onto the survivors
// (default 3s; self-spawn mode always respawns the full complement).
func WithRejoinWindow(d time.Duration) Option {
	return func(e *Env) { e.rejoinWindow = d }
}

// RestartStat is one completed supervised recovery: cause, detect and
// restore instants, the Downtime between them (detect→restored MTTR), the
// recovered epoch's worker count, and the checkpoint it resumed from.
type RestartStat = transport.RestartStat

// DialPolicy shapes worker dial/redial backoff (see transport.DialRetry).
type DialPolicy = transport.DialPolicy

// RegisterWireTypes registers custom record payload types for distributed
// runs. Every process of a job must register the same set before
// executing; builtin payloads (string, int, float64, ...) and the engine's
// window/join results are pre-registered.
func RegisterWireTypes(examples ...any) { transport.RegisterTypes(examples...) }

// Metrics returns the environment's metrics registry (created on first
// use). Runs report into it: per-node input counts and watermarks
// ("node.<name>.records_in", "node.<name>.watermark"), the scan and topic
// counters of at-rest sources ("node.<name>.records_out",
// "node.<name>.bytes_scanned", ...), checkpoint counts and durations
// ("job.checkpoints", "job.checkpoint_nanos"), and for distributed runs the
// per-edge transport gauges and counters ("edge.<name>.<i>.queued_batches",
// "edge.<name>.<i>.tx_bytes"); a distributed run reports only the subtasks
// of this process. Call Metrics before Execute: a run started without a
// registry reports nothing, and one created during a run is not attached
// to it.
func (e *Env) Metrics() *metrics.Registry {
	e.regOnce.Do(func() { e.reg = metrics.NewRegistry() })
	return e.reg
}

// ExecuteDistributed runs the pipeline across WithWorkers processes. This
// process becomes the coordinator (participant 0): it distributes the
// structural plan, runs every pinned chain — sinks, so Collect results land
// here, and live channel sources, whose data exists only here — injects
// checkpoint barriers, assembles per-subtask acks into global snapshots on
// the configured backend, and aborts cleanly if any worker connection
// drops (the job is then restartable from the last snapshot at any worker
// count via ExecuteDistributedRestored).
//
// With zero workers it is exactly Execute. In a WithSelfSpawn child
// process it runs the worker share and exits.
func (e *Env) ExecuteDistributed(ctx context.Context) error {
	return e.executeDistributed(ctx, nil)
}

// ExecuteDistributedRestored is ExecuteDistributed starting from a recovery
// snapshot — the worker count may differ from the run that wrote it;
// keyed state and splittable scan work redistribute.
func (e *Env) ExecuteDistributedRestored(ctx context.Context, snap *Snapshot) error {
	return e.executeDistributed(ctx, snap)
}

// ExecuteSupervised is ExecuteDistributed under supervision (implying
// WithSupervision with defaults if not configured): the job survives worker
// crashes, partitions and transient failures by restoring from the newest
// completed checkpoint and relaunching, within the restart budget. With
// zero workers it supervises the single-process run the same way — fail,
// reload from the backend, re-execute. RestartStats reports the recovery
// trajectory afterwards.
func (e *Env) ExecuteSupervised(ctx context.Context) error {
	e.supervise = true
	return e.executeDistributed(ctx, nil)
}

// RestartStats returns one entry per supervised recovery of the last
// ExecuteSupervised / supervised ExecuteDistributed run, in order. The
// Downtime of each entry is the detect→restored repair time.
func (e *Env) RestartStats() []RestartStat { return e.restartStats }

func (e *Env) executeDistributed(ctx context.Context, snap *Snapshot) error {
	if e.buildErr != nil {
		return e.buildErr
	}
	if addr := os.Getenv(WorkerEnvVar); addr != "" {
		// Self-spawned child: this very code built the identical pipeline,
		// so the env itself is the build product. The share must not return
		// into a main that would print empty results. A rejoin-shaped exit
		// is clean — the supervising parent respawns a fresh process per
		// epoch rather than having children redial.
		err := transport.RunWorker(ctx, addr, e.Metrics(), func(string, []string) (*dataflow.Graph, bool, error) {
			return e.graph, e.chaining, nil
		})
		if err != nil && !errors.Is(err, transport.ErrRejoin) {
			fmt.Fprintln(os.Stderr, "streamline worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	workers := e.workers
	if workers <= 0 {
		if !e.supervise {
			return e.run(ctx, snap)
		}
		return e.executeSupervisedLocal(ctx, snap)
	}
	cfg := transport.Config{
		Graph:             e.graph,
		Chaining:          e.chaining,
		Workers:           workers,
		Backend:           e.backend,
		Interval:          e.ckptEvery,
		Restore:           snap,
		Pipeline:          e.pipeline,
		Args:              e.pipeArgs,
		Registry:          e.Metrics(),
		ListenAddr:        e.listenAddr,
		HeartbeatInterval: e.hbInterval,
		HeartbeatTimeout:  e.hbTimeout,
	}
	spawnChild := func(addr string) (*exec.Cmd, error) {
		cmd := exec.CommandContext(ctx, os.Args[0], os.Args[1:]...)
		cmd.Env = append(os.Environ(), WorkerEnvVar+"="+addr)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return cmd, nil
	}

	if !e.supervise {
		coord, err := transport.NewCoordinator(cfg)
		if err != nil {
			return err
		}
		if e.onListen != nil {
			e.onListen(coord.Addr())
		}
		var spawned []*exec.Cmd
		if e.selfSpawn {
			for i := 0; i < workers; i++ {
				cmd, err := spawnChild(coord.Addr())
				if err != nil {
					for _, c := range spawned {
						c.Process.Kill()
						c.Wait()
					}
					return fmt.Errorf("spawn worker %d: %w", i+1, err)
				}
				spawned = append(spawned, cmd)
			}
		}
		runErr := coord.Run(ctx)
		e.distCompleted += coord.CompletedCheckpoints()
		// Children exit on their own once their share (or the abort) lands:
		// Run has closed every control connection by now, which unblocks them.
		for _, c := range spawned {
			c.Wait()
		}
		return runErr
	}

	sup, err := transport.NewSupervisor(cfg, transport.SupervisionPolicy{
		MaxRestarts:  e.maxRestarts,
		BaseBackoff:  e.backoffBase,
		MaxBackoff:   e.backoffMax,
		RejoinWindow: e.rejoinWindow,
	})
	if err != nil {
		return err
	}
	// Spawn/Reap run sequentially on the supervisor's goroutine: each epoch
	// respawns the full complement after waiting out the previous one.
	var procs []*exec.Cmd
	if e.selfSpawn {
		sup.Spawn = func(_ context.Context, addr string, n int) error {
			for i := 0; i < n; i++ {
				cmd, err := spawnChild(addr)
				if err != nil {
					return fmt.Errorf("spawn worker %d: %w", i+1, err)
				}
				procs = append(procs, cmd)
			}
			return nil
		}
		sup.Reap = func() {
			for _, c := range procs {
				c.Process.Kill()
				c.Wait()
			}
			procs = nil
		}
	}
	if e.onListen != nil {
		e.onListen(sup.Addr())
	}
	runErr := sup.Run(ctx)
	e.distCompleted += sup.CompletedCheckpoints()
	e.restartStats = sup.Stats()
	for _, c := range procs {
		c.Wait()
	}
	return runErr
}

// executeSupervisedLocal is the zero-worker supervision loop: Execute,
// and on failure reload the newest completed checkpoint and re-execute,
// with the same budget and backoff semantics as the distributed path. The
// graph re-executes in-process, so Collect sinks roll back to their
// checkpointed length and exactly-once output holds across restarts.
func (e *Env) executeSupervisedLocal(ctx context.Context, snap *Snapshot) error {
	maxRestarts, base, max := e.maxRestarts, e.backoffBase, e.backoffMax
	if maxRestarts == 0 {
		maxRestarts = 5
	}
	if maxRestarts < 0 {
		maxRestarts = 0
	}
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	restore := snap
	e.restartStats = nil
	for attempt := 0; ; attempt++ {
		err := e.run(ctx, restore)
		if err == nil {
			return nil
		}
		failedAt := time.Now()
		if ctx.Err() != nil {
			return err
		}
		if attempt >= maxRestarts {
			return fmt.Errorf("supervision: restart budget (%d) exhausted: %w", maxRestarts, err)
		}
		d := base << uint(attempt)
		if d <= 0 || d > max {
			d = max
		}
		d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return err
		}
		if e.backend != nil {
			// A corrupt newer checkpoint comes back as an error alongside
			// the newest readable one; resume from that rather than from
			// scratch.
			if s, ok, _ := e.backend.Latest(); ok {
				restore = s
			}
		}
		stat := RestartStat{Attempt: attempt + 1, Cause: err.Error(), FailedAt: failedAt, RestoredAt: time.Now()}
		stat.Downtime = stat.RestoredAt.Sub(stat.FailedAt)
		if restore != nil {
			stat.Checkpoint = restore.CheckpointID
		}
		e.restartStats = append(e.restartStats, stat)
	}
}

// Pipeline registry: generic worker processes (cmd/streamline-worker) have
// no main that builds the job, so pipelines register a named builder and
// the plan's pipeline name selects it.
var (
	pipelinesMu sync.RWMutex
	pipelines   = map[string]func(args []string) (*Env, error){}
)

// RegisterPipeline registers a named pipeline builder for generic workers.
// The builder must construct the pipeline exactly as the coordinator does
// for the same arguments — the plan fingerprint is verified before running.
func RegisterPipeline(name string, build func(args []string) (*Env, error)) {
	pipelinesMu.Lock()
	defer pipelinesMu.Unlock()
	pipelines[name] = build
}

// buildFromEnv adapts an Env-producing pipeline builder to the transport
// layer's graph-producing contract.
func buildFromEnv(build func(pipeline string, args []string) (*Env, error)) transport.BuildFunc {
	return func(pipeline string, args []string) (*dataflow.Graph, bool, error) {
		env, err := build(pipeline, args)
		if err != nil {
			return nil, false, err
		}
		if env.buildErr != nil {
			return nil, false, env.buildErr
		}
		return env.graph, env.chaining, nil
	}
}

// RunWorker executes one worker's share of a distributed job, rebuilding
// the pipeline with the given builder. It blocks until the share completes
// or the job aborts. Tests use it to run workers in-process over real TCP;
// cmd/streamline-worker wraps RunRegisteredWorker around it.
func RunWorker(ctx context.Context, coordAddr string, build func(pipeline string, args []string) (*Env, error), opts ...WorkerOption) error {
	reg := metrics.NewRegistry()
	return transport.RunWorker(ctx, coordAddr, reg, buildFromEnv(build), resolveWorkerOptions(opts))
}

// RunWorkerLoop is RunWorker for supervised jobs: the worker redials and
// rejoins after every supervised epoch restart, returning only when the job
// globally completes, fails terminally, or ctx is cancelled.
func RunWorkerLoop(ctx context.Context, coordAddr string, build func(pipeline string, args []string) (*Env, error), opts ...WorkerOption) error {
	reg := metrics.NewRegistry()
	return transport.RunWorkerLoop(ctx, coordAddr, reg, buildFromEnv(build), resolveWorkerOptions(opts))
}

// RunRegisteredWorker is RunWorker against the pipeline registry: the
// coordinator's plan names the pipeline, the registry builds it.
func RunRegisteredWorker(ctx context.Context, coordAddr string, opts ...WorkerOption) error {
	return RunWorker(ctx, coordAddr, registryBuilder, opts...)
}

// RunRegisteredWorkerLoop serves a supervised job across epochs: whenever
// the worker's share ends because the coordinator is restarting the job, it
// redials and rejoins the next epoch. It returns when the job globally
// completes, fails terminally, or ctx is cancelled. Use it instead of
// RunRegisteredWorker for workers of ExecuteSupervised coordinators.
func RunRegisteredWorkerLoop(ctx context.Context, coordAddr string, opts ...WorkerOption) error {
	reg := metrics.NewRegistry()
	return transport.RunWorkerLoop(ctx, coordAddr, reg, buildFromEnv(registryBuilder), resolveWorkerOptions(opts))
}

// WorkerOption configures worker dialing behavior.
type WorkerOption func(*workerConfig)

type workerConfig struct {
	dial DialPolicy
}

// WithWorkerDialPolicy sets the backoff policy workers use to dial (and,
// under supervision, redial) the coordinator.
func WithWorkerDialPolicy(p DialPolicy) WorkerOption {
	return func(c *workerConfig) { c.dial = p }
}

func resolveWorkerOptions(opts []WorkerOption) transport.WorkerOption {
	var c workerConfig
	for _, f := range opts {
		f(&c)
	}
	return transport.WithWorkerDialPolicy(c.dial)
}

func registryBuilder(pipeline string, args []string) (*Env, error) {
	pipelinesMu.RLock()
	build, ok := pipelines[pipeline]
	pipelinesMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pipeline %q not registered in this worker binary", pipeline)
	}
	return build(args)
}
