package mbsp

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// StageTracker is the commit ledger of one running stage, shared by both
// executors' stage runners. Every copy of a task — the primary, a backup
// launched by speculation, a re-dispatch after a worker loss — commits
// through it, first result wins: the winner's output, metrics and error
// are recorded, its rivals' in-flight calls are cancelled, and
// OnTaskDone fires for it exactly once. Ops are pure functions of
// (broadcasts, input partition), so whichever copy wins, the committed
// output is the same.
//
// With speculation configured, the tracker also keeps the straggler
// clock: the durations of committed tasks and the start time of each
// running primary, from which Backups picks tasks to copy. All other
// state is guarded by one mutex; OnTaskDone runs outside it, before the
// task counts as done, so Done closes only after every callback has
// returned.
type StageTracker struct {
	spec      *SpeculationConfig
	onDone    func(task int, out Partition)
	remaining atomic.Int64
	done      chan struct{} // closed when every task has committed

	mu         sync.Mutex
	outputs    []Partition
	metrics    []TaskMetrics
	errs       []error
	retries    []int
	committed  []bool
	aborted    bool
	durations  []time.Duration
	starts     map[int]time.Time // start time of each running primary
	armed      map[int]bool      // a backup copy is armed or in flight
	speculated map[int]bool      // ever backed up (for metrics)
	failed     map[int]bool      // one copy of a speculated task already failed
	cancels    map[int][]context.CancelFunc
}

// NewStageTracker returns the ledger for a stage of n tasks. spec, when
// non-nil, enables Backups; onDone, when non-nil, receives each committed
// successful output.
func NewStageTracker(n int, spec *SpeculationConfig, onDone func(task int, out Partition)) *StageTracker {
	t := &StageTracker{
		spec:      spec,
		onDone:    onDone,
		outputs:   make([]Partition, n),
		metrics:   make([]TaskMetrics, n),
		errs:      make([]error, n),
		retries:   make([]int, n),
		committed: make([]bool, n),
		done:      make(chan struct{}),
	}
	if spec != nil {
		// Only speculation runs rival copies of a task, so only it needs
		// the straggler clock and the cancel hooks; without it the maps
		// stay nil and read as empty.
		t.starts = make(map[int]time.Time)
		t.armed = make(map[int]bool)
		t.speculated = make(map[int]bool)
		t.failed = make(map[int]bool)
		t.cancels = make(map[int][]context.CancelFunc)
	}
	t.remaining.Store(int64(n))
	if n == 0 {
		close(t.done)
	}
	return t
}

// Begin registers a copy of task about to run. Under speculation a
// primary starts the task's straggler clock, and cancel, when non-nil, is
// called once the task commits or the stage aborts so a losing copy stops
// waiting. Begin reports false — the copy must not run — when the task
// has already committed or the stage was aborted.
func (t *StageTracker) Begin(task int, primary bool, cancel context.CancelFunc) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.aborted || t.committed[task] {
		return false
	}
	if t.spec != nil {
		if primary {
			t.starts[task] = time.Now()
		}
		if cancel != nil {
			t.cancels[task] = append(t.cancels[task], cancel)
		}
	}
	return true
}

// AddRetries adds extra executions of task (transport retries, discarded
// runs) to the count its committed metrics will report.
func (t *StageTracker) AddRetries(task, n int) {
	if n == 0 {
		return
	}
	t.mu.Lock()
	t.retries[task] += n
	t.mu.Unlock()
}

// Lost records that a copy of task died with its worker without
// committing. A lost primary stops counting as a running straggler (the
// caller re-dispatches it); a lost backup is disarmed so another idle
// worker may back the task up again.
func (t *StageTracker) Lost(task int, primary bool) {
	t.mu.Lock()
	if primary {
		delete(t.starts, task)
	} else {
		delete(t.armed, task)
	}
	t.mu.Unlock()
}

// Commit offers one copy's result for task. The first copy to commit
// wins and later ones are discarded — except that the first failure of a
// speculated task keeps it open, so the surviving copy can still deliver
// a good result. A committed success fires OnTaskDone.
func (t *StageTracker) Commit(task int, out Partition, m TaskMetrics, err error, backup bool) {
	t.mu.Lock()
	if t.aborted || t.committed[task] {
		t.mu.Unlock()
		return
	}
	if err != nil && t.armed[task] && !t.failed[task] {
		t.failed[task] = true
		t.mu.Unlock()
		return
	}
	t.committed[task] = true
	delete(t.starts, task)
	for _, cancel := range t.cancels[task] {
		cancel()
	}
	delete(t.cancels, task)
	m.Speculative = t.speculated[task]
	m.SpeculativeWin = backup && err == nil
	m.Retries += t.retries[task]
	t.outputs[task], t.metrics[task], t.errs[task] = out, m, err
	if err == nil {
		t.durations = append(t.durations, m.Duration)
	}
	t.mu.Unlock()
	if err == nil && t.onDone != nil {
		t.onDone(task, out)
	}
	if t.remaining.Add(-1) == 0 {
		close(t.done)
	}
}

// Done is closed once every task has committed.
func (t *StageTracker) Done() <-chan struct{} { return t.done }

// Backups turns an idle worker into a straggler hunter: every Poll it
// looks for the lowest-numbered running primary whose elapsed time
// exceeds Multiplier times the stage's median task duration, arms a
// backup for it, and calls run. It returns when the stage completes, stop
// closes, ctx ends, or run reports false (its worker was lost). Without a
// speculation config it returns at once.
func (t *StageTracker) Backups(ctx context.Context, stop <-chan struct{}, run func(task int) bool) {
	if t.spec == nil {
		return
	}
	ticker := time.NewTicker(t.spec.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if task, ok := t.candidate(); ok && !run(task) {
			return
		}
	}
}

// candidate picks and arms the straggler to back up.
func (t *StageTracker) candidate() (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.aborted || len(t.durations) < t.spec.MinCompleted {
		return 0, false
	}
	sorted := slices.Clone(t.durations)
	slices.Sort(sorted)
	bound := time.Duration(float64(sorted[len(sorted)/2]) * t.spec.Multiplier)
	best := -1
	for task, started := range t.starts {
		if t.armed[task] || time.Since(started) <= bound {
			continue
		}
		if best < 0 || task < best {
			best = task
		}
	}
	if best < 0 {
		return 0, false
	}
	t.armed[best] = true
	t.speculated[best] = true
	return best, true
}

// Abort poisons the stage: in-flight copies are cancelled and their
// results discarded.
func (t *StageTracker) Abort() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.aborted = true
	for _, cancels := range t.cancels {
		for _, cancel := range cancels {
			cancel()
		}
	}
	clear(t.cancels)
}

// Err returns the lowest-numbered committed task's error, if any: one
// deterministic failure regardless of completion order.
func (t *StageTracker) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, err := range t.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Pending returns the uncommitted tasks in ascending order.
func (t *StageTracker) Pending() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for task, ok := range t.committed {
		if !ok {
			out = append(out, task)
		}
	}
	return out
}

// Results returns the committed outputs (indexed by task) and per-task
// metrics.
func (t *StageTracker) Results() ([]Partition, []TaskMetrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.outputs, t.metrics
}
