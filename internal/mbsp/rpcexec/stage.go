package rpcexec

import (
	"context"
	"errors"
	"sync"
	"time"

	"diststream/internal/mbsp"
	"diststream/internal/wire"
)

var (
	_ mbsp.Capable         = (*Executor)(nil)
	_ mbsp.StageDispatcher = (*Executor)(nil)
)

// Capabilities implements mbsp.Capable.
func (e *Executor) Capabilities() mbsp.Capabilities {
	return mbsp.Capabilities{
		DeltaBroadcast:    e.cfg.DeltaBroadcast,
		ElasticMembership: e.cfg.Membership != nil,
	}
}

// RunTasks implements mbsp.Executor: DispatchStage without a broadcast.
func (e *Executor) RunTasks(ctx context.Context, stage, op string, inputs []mbsp.Partition) ([]mbsp.Partition, []mbsp.TaskMetrics, error) {
	return e.DispatchStage(ctx, mbsp.StageSpec{Stage: stage, Op: op, Inputs: inputs})
}

// DispatchStage implements mbsp.StageDispatcher and is the executor's
// one stage runner, with worker-loss recovery. Tasks run in rounds: each
// round takes the live workers, deals the pending tasks (ascending)
// round-robin over them — on the first round with all workers alive this
// is the static task i → worker i%p assignment — and runs each worker's
// list on its connection. Tasks stranded by a worker lost mid-round are
// re-dispatched next round over the survivors, until every task has
// committed or no worker remains. Because assignment depends only on task
// indices and the sorted set of survivors — never on timing — a run with
// a given failure pattern is deterministic. Application failures are
// deterministic too, so re-running them elsewhere cannot help: the stage
// aborts after the round with the lowest-numbered task's error. Outputs
// are returned in input order and stream to spec.OnTaskDone as tasks
// commit.
//
// A stage broadcast is fused into round one as a per-worker prologue:
// each live worker receives its broadcast frame and its first task frame
// back-to-back on the wire (broadcast-only when it has no task), which
// removes the cross-worker broadcast barrier and one round trip per
// worker. Correctness rests on broadcastToWorker's discard rule: a task
// that rode behind a rejected broadcast ran against a stale value, so its
// response is dropped and the task re-sent after the full-value fallback
// lands.
//
// With speculation configured, the broadcast is instead published as a
// barrier before round one (duplicate task copies need the cancellable
// per-call path), and a worker that drains its list polls for straggling
// primaries and runs backup copies on its own connection; the first
// result to commit wins and cancels the losing copy's in-flight call,
// without marking the losing worker dead.
func (e *Executor) DispatchStage(ctx context.Context, spec mbsp.StageSpec) ([]mbsp.Partition, []mbsp.TaskMetrics, error) {
	if e.isClosed() {
		return nil, nil, mbsp.ErrClosed
	}
	var prologue *broadcastFrames
	if spec.BroadcastID != "" {
		var err error
		if e.cfg.Speculation != nil {
			err = e.broadcastValue(ctx, spec.BroadcastID, spec.BroadcastValue, spec.BroadcastDelta)
		} else {
			prologue, err = e.newBroadcast(spec.BroadcastID, spec.BroadcastValue, spec.BroadcastDelta)
		}
		if err != nil {
			return nil, nil, &mbsp.BroadcastError{ID: spec.BroadcastID, Err: err}
		}
	}
	st := &stageRun{
		StageTracker: mbsp.NewStageTracker(len(spec.Inputs), e.cfg.Speculation, spec.OnTaskDone),
		spec:         spec,
		encoded:      make([]sync.Once, len(spec.Inputs)),
		reqs:         make([]request, len(spec.Inputs)),
	}
	pending := st.Pending()
	for len(pending) > 0 || prologue != nil {
		if err := ctx.Err(); err != nil {
			return st.fail(err)
		}
		var alive []int
		for w, wc := range e.conns {
			if wc.alive() {
				alive = append(alive, w)
			}
		}
		if len(alive) == 0 {
			if prologue != nil {
				return st.fail(&mbsp.BroadcastError{ID: spec.BroadcastID, Err: e.allWorkersLost(spec.Stage, -1)})
			}
			return st.fail(e.allWorkersLost(spec.Stage, len(pending)))
		}
		assign := make([][]int, len(alive))
		for j, task := range pending {
			assign[j%len(alive)] = append(assign[j%len(alive)], task)
		}

		// roundOver releases backup pollers once every primary list is
		// done, even when tasks stranded by a lost worker keep the stage
		// from completing this round.
		roundOver := make(chan struct{})
		var wgPrimary, wgAll sync.WaitGroup
		for wi, worker := range alive {
			tasks := assign[wi]
			if len(tasks) == 0 && prologue == nil && e.cfg.Speculation == nil {
				continue
			}
			wgPrimary.Add(1)
			wgAll.Add(1)
			go func(worker int, tasks []int) {
				defer wgAll.Done()
				primaryDone := sync.OnceFunc(wgPrimary.Done)
				defer primaryDone()
				if prologue != nil {
					var ok bool
					if tasks, ok = e.runPrologue(ctx, st, worker, prologue, tasks); !ok {
						return
					}
				}
				for _, task := range tasks {
					if ctx.Err() != nil || !e.runCopy(ctx, st, worker, task, false) {
						return
					}
				}
				primaryDone()
				st.Backups(ctx, roundOver, func(task int) bool {
					return e.runCopy(ctx, st, worker, task, true)
				})
			}(worker, tasks)
		}
		wgPrimary.Wait()
		close(roundOver)
		wgAll.Wait()
		if err := ctx.Err(); err != nil {
			return st.fail(err)
		}
		if len(st.bcastFatal) > 0 {
			return st.fail(&mbsp.BroadcastError{ID: spec.BroadcastID, Err: errors.Join(st.bcastFatal...)})
		}
		prologue = nil
		if err := st.Err(); err != nil {
			return st.fail(err)
		}
		pending = st.Pending()
	}
	outputs, metrics := st.Results()
	return outputs, metrics, nil
}

// stageRun is one dispatched stage: the shared commit ledger plus the
// stage's task frames and the fatal broadcast failures of its prologue.
type stageRun struct {
	*mbsp.StageTracker
	spec mbsp.StageSpec

	// encoded guards reqs: each task's input is columnar-encoded once,
	// on the dispatch goroutine that first ships it, and reused by
	// backups and re-dispatches.
	encoded []sync.Once
	reqs    []request

	mu         sync.Mutex
	bcastFatal []error
}

// request returns task's frame, encoding its input on first use: the
// columnar partition when the codec covers its shape, gob otherwise.
func (st *stageRun) request(task int) request {
	st.encoded[task].Do(func() {
		req := request{Kind: kindTask, Stage: st.spec.Stage, Op: st.spec.Op, TaskID: task}
		if cols, ok := wire.EncodePartition(st.spec.Inputs[task]); ok {
			req.InputCols = cols
		} else {
			req.Input = st.spec.Inputs[task]
		}
		st.reqs[task] = req
	})
	return st.reqs[task]
}

// fail aborts the stage and returns err with the metrics of the tasks
// that did commit.
func (st *stageRun) fail(err error) ([]mbsp.Partition, []mbsp.TaskMetrics, error) {
	st.Abort()
	_, metrics := st.Results()
	return nil, metrics, err
}

// commit offers one task response to the ledger. Application failures and
// corrupt columnar output are deterministic, so they commit as task
// errors rather than being re-dispatched. Duration is the round-trip wall
// time seen by the driver (serialization and network included), matching
// what a Spark driver observes per task.
func (st *stageRun) commit(worker, task int, resp response, start time.Time, backup bool) {
	m := mbsp.TaskMetrics{
		Stage:    st.spec.Stage,
		TaskID:   task,
		WorkerID: worker,
		Duration: time.Since(start),
		InItems:  len(st.spec.Inputs[task]),
	}
	var out mbsp.Partition
	var err error
	if resp.Err != "" {
		err = errors.New(resp.Err)
	} else {
		out, err = respOutput(resp)
	}
	if err != nil {
		st.Commit(task, nil, m, &mbsp.TaskError{Stage: st.spec.Stage, TaskID: task, Err: err}, backup)
		return
	}
	m.OutItems = len(out)
	st.Commit(task, out, m, nil, backup)
}

// respOutput extracts a task response's output partition, decoding the
// columnar form when the worker used it.
func respOutput(resp response) (mbsp.Partition, error) {
	if len(resp.OutputCols) == 0 {
		return resp.Output, nil
	}
	return wire.DecodePartition(resp.OutputCols)
}

// runPrologue delivers the stage broadcast to one worker, with the
// worker's first task riding behind it. It returns the tasks still to run
// on this worker, and false when the worker was lost or the broadcast
// failed fatally; stranded tasks stay pending for the next round.
func (e *Executor) runPrologue(ctx context.Context, st *stageRun, worker int, b *broadcastFrames, tasks []int) ([]int, bool) {
	var treq *request
	if len(tasks) > 0 {
		req := st.request(tasks[0])
		treq = &req
	}
	start := time.Now()
	tresp, sentTask, err := e.broadcastToWorker(ctx, e.conns[worker], b, treq)
	if tresp != nil {
		st.commit(worker, tasks[0], *tresp, start, false)
		return tasks[1:], true
	}
	if sentTask {
		st.AddRetries(tasks[0], 1) // the discarded run
	}
	if err != nil {
		// A lost worker leaves the broadcast degraded but consistent: it
		// receives no more tasks, so its stale state cannot surface.
		if !errors.Is(err, ErrWorkerLost) {
			st.mu.Lock()
			st.bcastFatal = append(st.bcastFatal, err)
			st.mu.Unlock()
		}
		return nil, false
	}
	return tasks, true
}

// runCopy runs one copy of task on worker and commits its response. It
// reports false when the worker was lost, leaving the task to a backup or
// the next round. A copy whose rival committed first is cancelled in
// flight; the cancellation makes the call return without marking the
// worker dead, and the torn-down connection redials on next use.
func (e *Executor) runCopy(ctx context.Context, st *stageRun, worker, task int, backup bool) bool {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if !st.Begin(task, !backup, cancel) {
		return true
	}
	start := time.Now()
	resp, tries, err := e.conns[worker].call(cctx, st.request(task))
	st.AddRetries(task, tries)
	if err == nil {
		st.commit(worker, task, resp, start, backup)
		return true
	}
	if cctx.Err() != nil {
		return true // the stage was cancelled or the other copy won
	}
	st.Lost(task, !backup)
	return false
}
