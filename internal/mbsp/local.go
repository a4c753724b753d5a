package mbsp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// DelayFunc injects artificial per-task latency; it receives the stage,
// task id and worker id and returns extra wall time to sleep before the
// task body runs. Used by the straggler experiments (§VII-D2) to model a
// contended cluster deterministically.
type DelayFunc func(stage string, taskID, workerID int) time.Duration

// FailFunc injects artificial task failures; it receives the stage, task
// id and attempt number and returns a non-nil error to make that attempt
// fail before the op body runs. Combined with TaskRetries it makes
// worker-crash recovery testable in-process: fail attempt 0, let the
// retry succeed, and assert the retry count in the task metrics.
type FailFunc func(stage string, taskID, attempt int) error

// LocalConfig configures a LocalExecutor.
type LocalConfig struct {
	// Parallelism is the number of worker goroutines (the paper's p).
	Parallelism int
	// Registry resolves op names. Required.
	Registry *Registry
	// Delay optionally injects straggler latency.
	Delay DelayFunc
	// Fail optionally injects task failures (see FailFunc).
	Fail FailFunc
	// TaskRetries re-runs a failed task up to this many additional times
	// before failing the stage — the engine-level analogue of Spark
	// Streaming's task re-execution, which the paper relies on for fault
	// tolerance (§VI). Default 0 (no retries).
	TaskRetries int
	// Speculation, when set, enables speculative re-execution of
	// straggling tasks: idle workers run backup copies of tasks that
	// exceed the configured multiple of the stage's median task duration,
	// and the first result wins.
	Speculation *SpeculationConfig
}

// LocalExecutor runs tasks on a pool of in-process worker goroutines. It
// is the executor used for all deterministic experiments; rpcexec provides
// the same semantics over TCP.
type LocalExecutor struct {
	cfg        LocalConfig
	broadcasts *mapStore

	mu     sync.Mutex
	closed bool
}

var (
	_ Executor        = (*LocalExecutor)(nil)
	_ Capable         = (*LocalExecutor)(nil)
	_ StageDispatcher = (*LocalExecutor)(nil)
)

// NewLocalExecutor validates cfg and returns an executor.
func NewLocalExecutor(cfg LocalConfig) (*LocalExecutor, error) {
	if cfg.Parallelism <= 0 {
		return nil, fmt.Errorf("mbsp: parallelism %d must be positive", cfg.Parallelism)
	}
	if cfg.Registry == nil {
		return nil, errors.New("mbsp: registry is required")
	}
	if cfg.Speculation != nil {
		validated, err := cfg.Speculation.WithDefaults()
		if err != nil {
			return nil, err
		}
		cfg.Speculation = &validated
	}
	return &LocalExecutor{cfg: cfg, broadcasts: newMapStore()}, nil
}

// Parallelism implements Executor.
func (e *LocalExecutor) Parallelism() int { return e.cfg.Parallelism }

// Broadcast implements Executor.
func (e *LocalExecutor) Broadcast(ctx context.Context, id string, value Item) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if id == "" {
		return errors.New("mbsp: empty broadcast id")
	}
	e.broadcasts.put(id, value)
	return nil
}

// RunTasks implements Executor: DispatchStage without a broadcast.
func (e *LocalExecutor) RunTasks(ctx context.Context, stage, op string, inputs []Partition) ([]Partition, []TaskMetrics, error) {
	return e.DispatchStage(ctx, StageSpec{Stage: stage, Op: op, Inputs: inputs})
}

// Capabilities implements Capable: the in-process executor has no use
// for broadcast deltas (workers read the driver's store directly) and a
// fixed worker set.
func (e *LocalExecutor) Capabilities() Capabilities { return Capabilities{} }

// DispatchStage implements StageDispatcher and is the executor's one
// stage runner. The fused broadcast is one store write. Tasks are dealt
// to workers round-robin (task i runs on worker i%p, on min(p, n)
// goroutines) and outputs are returned in input order; the call blocks
// until every task has committed (a synchronous stage barrier, matching
// the paper's synchronous update protocol). OnTaskDone fires from the
// stage's tracker as each task commits. With speculation configured, a
// worker that drains its queue polls for stragglers and runs backup
// copies; the stage completes as soon as every task has a committed
// result, without waiting for copies that already lost.
func (e *LocalExecutor) DispatchStage(ctx context.Context, spec StageSpec) ([]Partition, []TaskMetrics, error) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, nil, ErrClosed
	}
	if spec.BroadcastID != "" {
		if err := e.Broadcast(ctx, spec.BroadcastID, spec.BroadcastValue); err != nil {
			return nil, nil, &BroadcastError{ID: spec.BroadcastID, Err: err}
		}
	}
	fn, err := e.cfg.Registry.Lookup(spec.Op)
	if err != nil {
		return nil, nil, err
	}
	n, p := len(spec.Inputs), e.cfg.Parallelism
	st := NewStageTracker(n, e.cfg.Speculation, spec.OnTaskDone)
	run := func(task, worker int, backup bool) {
		if st.Begin(task, !backup, nil) {
			out, m, err := e.attemptTask(ctx, spec.Stage, fn, spec.Inputs, task, worker)
			st.Commit(task, out, m, err, backup)
		}
	}
	for w := 0; w < min(p, n); w++ {
		go func(w int) {
			for task := w; task < n && ctx.Err() == nil; task += p {
				run(task, w, false)
			}
			st.Backups(ctx, nil, func(task int) bool {
				run(task, w, true)
				return true
			})
		}(w)
	}
	select {
	case <-st.Done():
	case <-ctx.Done():
	}
	if err := ctx.Err(); err != nil {
		st.Abort() // in-flight copies discard their results
		_, metrics := st.Results()
		return nil, metrics, err
	}
	outputs, metrics := st.Results()
	if err := st.Err(); err != nil {
		return nil, metrics, err
	}
	return outputs, metrics, nil
}

// attemptTask runs one copy of a task — injected delay, injected
// failures, the op body (with panic containment) and the retry loop —
// and returns its output, metrics and error.
func (e *LocalExecutor) attemptTask(ctx context.Context, stage string, fn OpFunc, inputs []Partition, task, worker int) (Partition, TaskMetrics, error) {
	start := time.Now()
	if e.cfg.Delay != nil {
		if d := e.cfg.Delay(stage, task, worker); d > 0 {
			time.Sleep(d)
		}
	}
	tctx := &TaskContext{
		StageName:  stage,
		TaskID:     task,
		WorkerID:   worker,
		broadcasts: e.broadcasts,
	}
	var out Partition
	var err error
	for attempt := 0; ; attempt++ {
		tctx.Attempt = attempt
		if e.cfg.Fail != nil {
			err = e.cfg.Fail(stage, task, attempt)
		} else {
			err = nil
		}
		if err == nil {
			out, err = SafeCall(fn, tctx, inputs[task])
		}
		if err == nil || attempt >= e.cfg.TaskRetries || ctx.Err() != nil {
			break
		}
	}
	m := TaskMetrics{
		Stage:    stage,
		TaskID:   task,
		WorkerID: worker,
		Duration: time.Since(start),
		InItems:  len(inputs[task]),
		OutItems: len(out),
		Retries:  tctx.Attempt,
	}
	if err != nil {
		return nil, m, &TaskError{Stage: stage, TaskID: task, Err: err}
	}
	return out, m, nil
}

// Close implements Executor.
func (e *LocalExecutor) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	return nil
}

// NewStragglerDelay returns a DelayFunc modelling cluster contention: each
// task independently becomes a straggler with probability prob, sleeping
// an extra duration uniform in [minDelay, maxDelay). The function is
// deterministic for a given seed and (stage, task) pair, so repeated runs
// hit the same stragglers.
func NewStragglerDelay(seed int64, prob float64, minDelay, maxDelay time.Duration) DelayFunc {
	return func(stage string, taskID, _ int) time.Duration {
		// Derive a per-(stage,task) stream so scheduling order cannot
		// change which tasks straggle. FNV-1a over stage name + task id.
		h := uint64(14695981039346656037)
		for _, b := range []byte(stage) {
			h = (h ^ uint64(b)) * 1099511628211
		}
		h = (h ^ uint64(taskID)) * 1099511628211
		rng := rand.New(rand.NewSource(seed ^ int64(h)))
		if rng.Float64() >= prob {
			return 0
		}
		span := maxDelay - minDelay
		if span <= 0 {
			return minDelay
		}
		return minDelay + time.Duration(rng.Int63n(int64(span)))
	}
}
