// Package diststream is the public facade of the DistStream library: an
// order-aware distributed framework for online-offline stream clustering
// algorithms (Xu et al., ICDCS 2020), reimplemented in pure Go.
//
// The framework parallelizes the online phase of stream clustering with a
// mini-batch update model that preserves record arrival order, running on
// a built-in mini-batch stream-processing engine (an in-process executor
// for single-machine use and a TCP executor for real worker processes).
// Four classic algorithms ship with it: CluStream, DenStream, D-Stream and
// ClusTree, plus a minimal reference algorithm ("simple") that documents
// the developer API.
//
// Quickstart:
//
//	sys, err := diststream.New(diststream.Options{Parallelism: 4})
//	...
//	algo, err := sys.NewCluStream(diststream.CluStreamOptions{Dim: 54})
//	pl, err := sys.NewPipeline(algo, diststream.PipelineOptions{BatchSeconds: 10})
//	stats, err := pl.Run(source)
//	clustering, err := pl.Offline()
//
// Runs can be cancelled or bounded with a context:
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	stats, err := pl.RunContext(ctx, source)
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package diststream

import (
	"errors"
	"fmt"
	"time"

	"diststream/internal/checkpoint"
	"diststream/internal/clustream"
	"diststream/internal/clustree"
	"diststream/internal/core"
	"diststream/internal/denstream"
	"diststream/internal/dstream"
	"diststream/internal/mbsp"
	"diststream/internal/mbsp/rpcexec"
	"diststream/internal/membership"
	"diststream/internal/simple"
	"diststream/internal/stream"
	"diststream/internal/vclock"
)

// Re-exported core types: users interact with these directly.
type (
	// Algorithm is a stream clustering algorithm pluggable into the
	// pipeline (the paper's four developer APIs).
	Algorithm = core.Algorithm
	// MicroCluster is the online-phase sketch unit.
	MicroCluster = core.MicroCluster
	// Snapshot is the broadcast search structure.
	Snapshot = core.Snapshot
	// Model is the live micro-cluster set.
	Model = core.Model
	// Clustering is the offline-phase output.
	Clustering = core.Clustering
	// Pipeline is the mini-batch driver loop.
	Pipeline = core.Pipeline
	// RunStats summarizes a pipeline run.
	RunStats = core.RunStats
	// Published is one frozen, self-consistent model snapshot handed to
	// PipelineOptions.OnSnapshot after each global update.
	Published = core.Published
	// OrderMode selects order-aware vs unordered updates.
	OrderMode = core.OrderMode
	// AdaptiveBatch configures run-time batch-interval adaptation.
	AdaptiveBatch = core.AdaptiveBatch
	// CheckpointConfig enables durable checkpoint/resume of pipeline runs.
	CheckpointConfig = core.CheckpointConfig
	// StateCodec is implemented by algorithms that support checkpointing.
	StateCodec = core.StateCodec
	// SpeculationConfig enables speculative re-execution of straggling
	// tasks on either executor.
	SpeculationConfig = mbsp.SpeculationConfig
	// Record is one stream element.
	Record = stream.Record
	// Source is a pull-based record stream.
	Source = stream.Source
	// Time is a virtual timestamp in seconds.
	Time = vclock.Time
)

// ErrNoCheckpoint is returned by Pipeline.ResumeFrom when the checkpoint
// directory holds no valid checkpoint file.
var ErrNoCheckpoint = checkpoint.ErrNoCheckpoint

// Order modes.
const (
	// OrderAware is the paper's order-preserving update mechanism
	// (default).
	OrderAware = core.OrderAware
	// OrderUnordered is the unordered mini-batch baseline.
	OrderUnordered = core.OrderUnordered
)

// ExecutionOptions consolidates every knob that governs how batches
// execute: broadcast encoding, straggler
// speculation, the TCP executor's fault-tolerance timings and the
// default checkpoint cadence. Zero-valued fields take the documented
// defaults.
type ExecutionOptions struct {
	// DeltaBroadcast ships per-batch model snapshots as deltas (only the
	// micro-clusters that changed since the worker's last acknowledged
	// snapshot) instead of full copies (TCP executor only). Reconnects,
	// version gaps and checksum mismatches transparently fall back to
	// full snapshots, so results are bit-identical with the option off;
	// it purely reduces broadcast bytes for algorithms whose batches
	// touch few clusters.
	DeltaBroadcast bool
	// Speculation, when set, launches backup copies of straggling tasks
	// on idle workers; the first result wins. Works on both executors.
	Speculation *SpeculationConfig
	// DialTimeout bounds each TCP connection attempt to a worker.
	// Default 5s.
	DialTimeout time.Duration
	// CallTimeout bounds each task/broadcast round trip; a worker that
	// stalls past it fails that attempt and the call is retried on a
	// fresh connection. Default 30s; negative disables the deadline.
	CallTimeout time.Duration
	// MaxRetries is the number of extra attempts (each with a reconnect)
	// a call gets before its worker is declared lost and the worker's
	// tasks are re-dispatched onto the survivors. Default 2.
	MaxRetries int
	// Backoff is the sleep before the first retry, doubling on each
	// subsequent one. Default 50ms.
	Backoff time.Duration
	// CheckpointEveryNBatches is the default checkpoint cadence applied
	// to pipelines that enable checkpointing without setting their own
	// CheckpointConfig.EveryNBatches. Default 1.
	CheckpointEveryNBatches int
	// GlobalShards, when >= 1, partitions the driver's global update into
	// that many shards: the per-micro-cluster phase runs as parallel
	// per-shard reducers and the order-sensitive cross-shard residue
	// (merges, deletions, sweeps) stays serialized, so the final model is
	// byte-identical to the serial path. Takes effect for algorithms with
	// a sharded decomposition (CluStream, DenStream); others keep the
	// serial global update. 0 (default) keeps the serial path everywhere.
	GlobalShards int
	// Membership, when set, makes the TCP worker set elastic: the system
	// runs a membership registry with health probes and a Hello/Goodbye
	// listener (address via System.MembershipAddr), and the executor
	// retires departed workers and admits announced joiners at batch
	// boundaries — with full model catch-up — without changing the
	// partitioning, so output stays bit-identical under churn. Requires
	// WorkerAddrs.
	Membership *MembershipOptions
}

// MembershipOptions tunes elastic worker membership (TCP executor only).
// Zero-valued fields take the documented defaults.
type MembershipOptions struct {
	// ListenAddr binds the Hello/Goodbye announcement listener that
	// restarted or new workers contact to join. Default "127.0.0.1:0"
	// (ephemeral; read the chosen address from System.MembershipAddr).
	ListenAddr string
	// ProbeInterval is the health-probe period. Default 1s.
	ProbeInterval time.Duration
	// SuspectAfter is how long a worker may fail probes before it is
	// marked suspect (and, after another SuspectAfter, dead). Default
	// 3x ProbeInterval.
	SuspectAfter time.Duration
	// JoinBarrier bounds how long one batch boundary spends catching up
	// join candidates before dispatch proceeds without them. Default 2s.
	JoinBarrier time.Duration
}

// Options configures a System.
type Options struct {
	// Parallelism is the number of workers (the paper's parallelism
	// degree p). Default 1.
	Parallelism int
	// WorkerAddrs, when set, runs stages on remote TCP workers (started
	// with cmd/mbsp-worker or rpcexec.NewWorker) instead of in-process
	// goroutines. Parallelism is then len(WorkerAddrs).
	WorkerAddrs []string
	// Execution gathers the execution-strategy knobs: delta broadcast, speculation, TCP fault-tolerance timings, checkpoint
	// cadence.
	Execution ExecutionOptions
}

// System owns the execution engine and the algorithm registry. Create one
// per process (or per isolated experiment) and build pipelines from it.
type System struct {
	engine   *mbsp.Engine
	algos    *core.AlgorithmRegistry
	execName string
	exec     ExecutionOptions
	// members is the elastic-membership registry (nil unless
	// Execution.Membership was set).
	members *membership.Registry
}

// New builds a System with all four shipped algorithms registered.
func New(opts Options) (*System, error) {
	if opts.Parallelism <= 0 {
		opts.Parallelism = 1
	}
	ex := opts.Execution
	algos, err := NewAlgorithmRegistry()
	if err != nil {
		return nil, err
	}
	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, algos); err != nil {
		return nil, err
	}
	var exec mbsp.Executor
	var members *membership.Registry
	execName := "local"
	if len(opts.WorkerAddrs) > 0 {
		execName = "tcp"
		RegisterWireTypes()
		if m := ex.Membership; m != nil {
			listen := m.ListenAddr
			if listen == "" {
				listen = "127.0.0.1:0"
			}
			members, err = membership.New(membership.Config{
				ListenAddr:    listen,
				ProbeInterval: m.ProbeInterval,
				SuspectAfter:  m.SuspectAfter,
			})
			if err != nil {
				return nil, fmt.Errorf("diststream: %w", err)
			}
		}
		cfg := rpcexec.Config{
			DialTimeout:    ex.DialTimeout,
			CallTimeout:    ex.CallTimeout,
			MaxRetries:     ex.MaxRetries,
			Backoff:        ex.Backoff,
			Speculation:    ex.Speculation,
			DeltaBroadcast: ex.DeltaBroadcast,
			Membership:     members,
		}
		if ex.Membership != nil {
			cfg.JoinBarrier = ex.Membership.JoinBarrier
		}
		exec, err = rpcexec.DialConfig(opts.WorkerAddrs, cfg)
		if err != nil {
			if members != nil {
				_ = members.Close()
			}
			return nil, err
		}
	} else {
		if ex.Membership != nil {
			return nil, errors.New("diststream: Execution.Membership requires WorkerAddrs (TCP executor)")
		}
		exec, err = mbsp.NewLocalExecutor(mbsp.LocalConfig{
			Parallelism: opts.Parallelism,
			Registry:    reg,
			Speculation: ex.Speculation,
		})
		if err != nil {
			return nil, err
		}
	}
	engine, err := mbsp.NewEngine(exec)
	if err != nil {
		if members != nil {
			_ = members.Close()
		}
		return nil, err
	}
	return &System{engine: engine, algos: algos, execName: execName, exec: ex, members: members}, nil
}

// Close releases the engine (and closes worker connections in TCP mode),
// plus the membership registry when one is running.
func (s *System) Close() error {
	err := s.engine.Close()
	if s.members != nil {
		if merr := s.members.Close(); err == nil {
			err = merr
		}
	}
	return err
}

// MembershipAddr returns the Hello/Goodbye announcement listener's
// address — what restarted or new workers pass as their -announce target
// to join the cluster — or "" when elastic membership is not enabled.
func (s *System) MembershipAddr() string {
	if s.members == nil {
		return ""
	}
	return s.members.Addr()
}

// Parallelism returns the configured worker count.
func (s *System) Parallelism() int { return s.engine.Parallelism() }

// ExecutorName names the executor backing this system: "local" for the
// in-process executor, "tcp" for remote workers.
func (s *System) ExecutorName() string { return s.execName }

// NewAlgorithmRegistry returns a registry with the shipped algorithms
// (clustream, denstream, dstream, clustree, simple). Most callers use
// System instead; worker binaries use this to mirror the driver.
func NewAlgorithmRegistry() (*core.AlgorithmRegistry, error) {
	algos := core.NewAlgorithmRegistry()
	for _, register := range []func(*core.AlgorithmRegistry) error{
		clustream.Register,
		denstream.Register,
		dstream.Register,
		clustree.Register,
		simple.Register,
	} {
		if err := register(algos); err != nil {
			return nil, err
		}
	}
	return algos, nil
}

// RegisterWireTypes registers every gob payload with the TCP transport.
// Both driver and worker processes must call it before exchanging tasks.
func RegisterWireTypes() {
	core.RegisterWireTypes()
	clustream.RegisterWireTypes()
	denstream.RegisterWireTypes()
	dstream.RegisterWireTypes()
	clustree.RegisterWireTypes()
	simple.RegisterWireTypes()
}

// PipelineOptions configures a pipeline run.
type PipelineOptions struct {
	// BatchSeconds is the mini-batch interval in virtual seconds.
	// Default 10 (the paper's setting).
	BatchSeconds float64
	// Order defaults to OrderAware.
	Order OrderMode
	// InitRecords is the warm-up sample for model initialization.
	// Default 500.
	InitRecords int
	// DisablePreMerge turns off the outlier pre-merge optimization.
	DisablePreMerge bool
	// DecayAlpha/DecayBeta, when both set, enforce the paper's §IV-D
	// maximum batch interval log_beta(1/alpha).
	DecayAlpha, DecayBeta float64
	// Adaptive, when set, adjusts the batch interval at run time toward a
	// target records-per-batch (the paper's §VII-D3 future work).
	Adaptive *AdaptiveBatch
	// Checkpoint, when set, durably snapshots the run to Checkpoint.Dir
	// every Checkpoint.EveryNBatches batches; an interrupted run continues
	// bit-identically via Pipeline.ResumeFrom. The algorithm must
	// implement StateCodec (all shipped algorithms do).
	Checkpoint *CheckpointConfig
	// OnBatch, when set, runs on the driver after each batch.
	OnBatch func(batch stream.Batch, model *Model) error
	// OnSnapshot, when set, receives a frozen deep copy of the model —
	// micro-cluster clones plus a prebuilt search index — after
	// initialization and after every global update. Under Run and
	// RunContext it runs in the batch's tail, beside the next batch's
	// parallel stages (never beside a model mutation, never concurrently
	// with itself); ProcessBatch calls it synchronously. Implementations
	// should be cheap (an atomic pointer swap into a registry); this is
	// the publication feed a query-serving subsystem reads from (see
	// `diststream serve`).
	OnSnapshot func(Published)
	// SnapshotMinInterval, when positive, paces OnSnapshot by wall
	// time: building a publication (model clone + search index) has a
	// real cost, and a saturated ingest loop reaches batch boundaries
	// hundreds of times per second. The first publication is never
	// skipped; zero keeps the publish-every-batch behavior.
	SnapshotMinInterval time.Duration
}

// NewPipeline builds a DistStream pipeline for the given algorithm.
func (s *System) NewPipeline(algo Algorithm, opts PipelineOptions) (*Pipeline, error) {
	if algo == nil {
		return nil, errors.New("diststream: nil algorithm")
	}
	if opts.BatchSeconds <= 0 {
		opts.BatchSeconds = 10
	}
	if opts.Checkpoint != nil && opts.Checkpoint.EveryNBatches == 0 && s.exec.CheckpointEveryNBatches > 0 {
		ck := *opts.Checkpoint
		ck.EveryNBatches = s.exec.CheckpointEveryNBatches
		opts.Checkpoint = &ck
	}
	return core.NewPipeline(core.Config{
		Algorithm:          algo,
		Engine:             s.engine,
		GlobalShards:       s.exec.GlobalShards,
		BatchInterval:      vclock.Duration(opts.BatchSeconds),
		Order:              opts.Order,
		InitRecords:        opts.InitRecords,
		DisablePreMerge:    opts.DisablePreMerge,
		DecayAlpha:         opts.DecayAlpha,
		DecayBeta:          opts.DecayBeta,
		Adaptive:           opts.Adaptive,
		Checkpoint:         opts.Checkpoint,
		OnBatch:            opts.OnBatch,
		OnPublish:          opts.OnSnapshot,
		PublishMinInterval: opts.SnapshotMinInterval,
	})
}

// NewAlgorithm constructs a registered algorithm from serialized params —
// the path remote workers use. Local callers prefer the typed
// constructors below.
func (s *System) NewAlgorithm(params core.Params) (Algorithm, error) {
	return s.algos.New(params)
}

// RegisterAlgorithm installs a custom algorithm factory. Pipelines
// reconstruct the algorithm from its Params() on every task, so any
// algorithm run through this System — including the one passed to
// NewPipeline directly — must be registered under its Params().Name.
// See examples/customalgo.
func (s *System) RegisterAlgorithm(name string, factory func(core.Params) (Algorithm, error)) error {
	return s.algos.Register(name, factory)
}

// CluStreamOptions mirrors clustream.Config.
type CluStreamOptions = clustream.Config

// NewCluStream builds a CluStream instance.
func (s *System) NewCluStream(opts CluStreamOptions) (Algorithm, error) {
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("diststream: clustream needs Dim > 0")
	}
	return clustream.New(opts), nil
}

// DenStreamOptions mirrors denstream.Config.
type DenStreamOptions = denstream.Config

// NewDenStream builds a DenStream instance.
func (s *System) NewDenStream(opts DenStreamOptions) (Algorithm, error) {
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("diststream: denstream needs Dim > 0")
	}
	return denstream.New(opts), nil
}

// DStreamOptions mirrors dstream.Config.
type DStreamOptions = dstream.Config

// NewDStream builds a D-Stream instance.
func (s *System) NewDStream(opts DStreamOptions) (Algorithm, error) {
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("diststream: dstream needs Dim > 0")
	}
	return dstream.New(opts), nil
}

// ClusTreeOptions mirrors clustree.Config.
type ClusTreeOptions = clustree.Config

// NewClusTree builds a ClusTree instance.
func (s *System) NewClusTree(opts ClusTreeOptions) (Algorithm, error) {
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("diststream: clustree needs Dim > 0")
	}
	return clustree.New(opts), nil
}

// SimpleOptions mirrors simple.Config.
type SimpleOptions = simple.Config

// NewSimple builds the reference algorithm.
func (s *System) NewSimple(opts SimpleOptions) Algorithm {
	return simple.New(opts)
}

// MaxBatchSeconds exposes the paper's §IV-D bound: the largest batch
// interval keeping per-record decay above alpha for decay base beta.
func MaxBatchSeconds(alpha, beta float64) (float64, error) {
	d, err := core.MaxBatchSeconds(alpha, beta)
	return float64(d), err
}
