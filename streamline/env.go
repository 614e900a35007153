package streamline

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/state"
)

// Exchange defaults, re-exported from the engine: records cross subtask
// boundaries in pooled batches of DefaultBatchSize, and a staged record
// waits at most DefaultFlushInterval before being shipped.
const (
	DefaultBatchSize     = dataflow.DefaultBatchSize
	DefaultFlushInterval = dataflow.DefaultFlushInterval
)

// DefaultNumKeyGroups is the key-group count of plans that do not set
// WithNumKeyGroups — the granularity at which keyed state partitions,
// checkpoints and redistributes across rescales.
const DefaultNumKeyGroups = state.DefaultNumKeyGroups

// Env owns a pipeline under construction and its execution options: the
// engine job graph the typed operators lower onto, and every setting the
// options configure. One Env builds one job.
type Env struct {
	graph       *dataflow.Graph
	parallelism int
	chaining    bool
	vectorize   bool
	vecKeyed    bool
	fusion      bool
	combiner    CombinerMode
	backend     Backend
	ckptEvery   time.Duration
	buildErr    error
	job         *dataflow.Job

	// Distributed-execution configuration, consumed by ExecuteDistributed
	// (plain Execute ignores it).
	workers       int
	listenAddr    string
	selfSpawn     bool
	pipeline      string
	pipeArgs      []string
	onListen      func(addr string)
	distCompleted int64

	// Supervision configuration, consumed by ExecuteSupervised and by
	// ExecuteDistributed when WithSupervision is given.
	supervise    bool
	maxRestarts  int
	backoffBase  time.Duration
	backoffMax   time.Duration
	hbInterval   time.Duration
	hbTimeout    time.Duration
	rejoinWindow time.Duration

	// reg is the lazily created metrics registry (see Metrics); regOnce
	// guards its creation.
	reg     *metrics.Registry
	regOnce sync.Once

	// restartStats is the recovery trajectory of the last supervised run
	// (see RestartStats).
	restartStats []RestartStat
}

// Option configures an Env at construction.
type Option func(*Env)

// CombinerMode controls automatic pre-aggregation before hash shuffles.
type CombinerMode uint8

const (
	// CombinerAuto samples the key distribution at runtime and enables
	// combining when it is profitable (the default).
	CombinerAuto CombinerMode = iota
	// CombinerOn always pre-aggregates.
	CombinerOn
	// CombinerOff never pre-aggregates (ablation baseline).
	CombinerOff
)

// Backend persists checkpoints for exactly-once recovery.
type Backend = state.Backend

// Snapshot is one completed checkpoint: every subtask's serialized state.
// Backends hand it back for recovery via Latest or Load.
type Snapshot = state.Snapshot

// WithParallelism sets the default operator parallelism. Zero (default)
// means "adapt to the architecture": the machine's CPU count, capped at 4.
func WithParallelism(p int) Option {
	return func(e *Env) { e.parallelism = p }
}

// WithChaining toggles operator chaining (default on).
func WithChaining(on bool) Option {
	return func(e *Env) { e.chaining = on }
}

// WithVectorizedChains toggles the engine's batch-at-a-time fast path through
// operator chains (default on). Purely physical: results are identical either
// way, at any batch size, and the setting is not part of the distributed
// plan fingerprint.
func WithVectorizedChains(on bool) Option {
	return func(e *Env) { e.vectorize = on }
}

// WithVectorizedKeyedOps toggles the keyed half of that fast path (default
// on): keyed operators process whole data runs with run-grouped state access
// and the exchange stager hash-routes a run in one pass. No effect when
// WithVectorizedChains is off. Purely physical: the logical plan, all
// results and every checkpoint are identical either way.
func WithVectorizedKeyedOps(on bool) Option {
	return func(e *Env) { e.vecKeyed = on }
}

// WithStageFusion toggles typed stage fusion (default on): runs of adjacent
// Map/Filter/FlatMap stages lower into one fused operator that keeps values
// in their concrete type across stages — one unbox at chain entry, one box at
// exit. Fused node names concatenate the stage names with "+", so the lowered
// plan (and its distributed fingerprint) is deterministic for a given
// setting; results are identical with fusion on or off.
func WithStageFusion(on bool) Option {
	return func(e *Env) { e.fusion = on }
}

// WithCombiner sets the combiner mode (default CombinerAuto).
func WithCombiner(m CombinerMode) Option {
	return func(e *Env) { e.combiner = m }
}

// WithCheckpointing enables asynchronous barrier snapshots on the given
// backend at the given interval.
func WithCheckpointing(b Backend, every time.Duration) Option {
	return func(e *Env) { e.backend, e.ckptEvery = b, every }
}

// WithStateBackend sets the snapshot backend without enabling periodic
// checkpoints — pair it with ExecuteRestored on the recovery side of a job
// whose writing side ran WithCheckpointing.
func WithStateBackend(b Backend) Option {
	return func(e *Env) { e.backend = b }
}

// WithNumKeyGroups sets the plan's key-group count (default
// DefaultNumKeyGroups) — the unit of keyed-state partitioning and hash
// routing. Purely physical for results (identical at every value and any
// parallelism) but a plan constant for recovery: a checkpoint restores only
// into a plan with the same value. Pick it comfortably above the largest
// parallelism the job may ever rescale to and keep it.
func WithNumKeyGroups(n int) Option {
	return func(e *Env) { e.graph.NumKeyGroups = n }
}

// WithBatchSize sets how many records the exchange layer stages per batch
// before shipping it across a subtask boundary (default 64). Bigger batches
// amortize channel hops and raise throughput; 1 degenerates to per-record
// exchange (the ablation baseline). Purely physical: the logical plan and
// its results are identical at every batch size.
func WithBatchSize(n int) Option {
	return func(e *Env) { e.graph.BatchSize = n }
}

// WithFlushInterval bounds how long a record may wait in an exchange staging
// buffer before being shipped downstream (default 10ms) — the latency lever
// for in-motion sources, trading a little throughput for freshness. Negative
// disables the periodic flush; batches then ship only when full or at
// watermarks, barriers and end-of-stream.
func WithFlushInterval(d time.Duration) Option {
	return func(e *Env) { e.graph.FlushInterval = d }
}

// NewMemoryBackend returns an in-memory checkpoint backend retaining the
// last `retain` snapshots (0 keeps all).
func NewMemoryBackend(retain int) Backend { return state.NewMemoryBackend(retain) }

// NewFileBackend returns a durable checkpoint backend persisting each
// snapshot as a file under dir (created if needed) — the backend to use
// when a job must survive process restarts or restore at a different
// parallelism in a new process.
func NewFileBackend(dir string) (Backend, error) { return state.NewFileBackend(dir) }

// New returns an empty pipeline environment.
func New(opts ...Option) *Env {
	e := &Env{
		graph:     dataflow.NewGraph("streamline"),
		chaining:  true,
		vectorize: true,
		vecKeyed:  true,
		fusion:    true,
	}
	for _, o := range opts {
		o(e)
	}
	if e.parallelism <= 0 {
		// "adopted to ... the architecture": size to the machine.
		e.parallelism = min(runtime.NumCPU(), 4)
	}
	return e
}

// fail records a pipeline construction error; Execute returns the first.
func (e *Env) fail(err error) {
	if e.buildErr == nil {
		e.buildErr = err
	}
}

// addForward appends a per-subtask operator fed by base over a forward edge
// at base's parallelism — the shape of every stateless stage, which chaining
// fuses into base's subtasks.
func (e *Env) addForward(name string, base *dataflow.Node, f dataflow.OperatorFactory) *dataflow.Node {
	return e.graph.AddOperator(name, base.Parallelism, f, dataflow.Edge{From: base, Part: dataflow.Forward})
}

// addSink appends a terminal operator at parallelism 1 fed by base over a
// rebalance edge. Sinks observe results or write to destinations owned by
// the submitting process (a caller's buffer or closure, a topic store's
// file handles), so the node is pinned there in distributed execution.
func (e *Env) addSink(name string, base *dataflow.Node, f dataflow.OperatorFactory) {
	n := e.graph.AddOperator(name, 1, f, dataflow.Edge{From: base, Part: dataflow.Rebalance})
	n.Pinned = true
}

// addSource appends a source node; parallelism <= 0 uses the environment
// default.
func (e *Env) addSource(name string, parallelism int, f dataflow.SourceFactory) *dataflow.Node {
	if parallelism <= 0 {
		parallelism = e.parallelism
	}
	return e.graph.AddSource(name, parallelism, f)
}

// Execute runs the pipeline to completion (bounded sources) or until the
// context is cancelled (unbounded sources).
func (e *Env) Execute(ctx context.Context) error { return e.run(ctx, nil) }

// ExecuteRestored runs the pipeline starting from a recovery snapshot:
// every operator and source subtask is handed its checkpointed state before
// processing. Rebuild the identical pipeline on a fresh Env, then resume
// with the snapshot from the backend's Latest.
func (e *Env) ExecuteRestored(ctx context.Context, snap *Snapshot) error {
	return e.run(ctx, snap)
}

// run executes the graph in this process, restoring from snap when non-nil.
func (e *Env) run(ctx context.Context, snap *Snapshot) error {
	if e.buildErr != nil {
		return e.buildErr
	}
	opts := []dataflow.JobOption{
		dataflow.WithChaining(e.chaining),
		dataflow.WithVectorizedChains(e.vectorize),
		dataflow.WithVectorizedKeyedOps(e.vecKeyed),
		dataflow.WithRestore(snap),
	}
	if e.backend != nil {
		opts = append(opts, dataflow.WithCheckpointing(e.backend, e.ckptEvery))
	}
	if e.reg != nil {
		opts = append(opts, dataflow.WithMetrics(e.reg))
	}
	e.job = dataflow.NewJob(e.graph, opts...)
	return e.job.Run(ctx)
}

// CompletedCheckpoints reports the number of persisted checkpoints of the
// last Execute call.
func (e *Env) CompletedCheckpoints() int64 {
	if e.job == nil {
		return e.distCompleted
	}
	return e.distCompleted + e.job.CompletedCheckpoints()
}

// Graph exposes the engine job graph the pipeline lowers to — plan
// inspection, diagnostics, and handing the plan to a distributed runtime.
func (e *Env) Graph() *dataflow.Graph { return e.graph }

// Chaining reports whether operator chaining is enabled — part of the
// physical-plan identity a distributed worker must reproduce.
func (e *Env) Chaining() bool { return e.chaining }

// BuildErr returns the first pipeline construction error, if any.
func (e *Env) BuildErr() error { return e.buildErr }

// Core returns the Env itself. It once exposed a separate untyped builder
// layer; that layer is folded into Env, whose Graph, Chaining and BuildErr
// methods answer directly.
//
// Deprecated: Call Graph, Chaining and BuildErr on the Env itself. Core is
// kept only so existing callers of env.Core().Graph() keep compiling.
func (e *Env) Core() *Env { return e }
