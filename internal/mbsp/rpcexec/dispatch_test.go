package rpcexec

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diststream/internal/mbsp"
)

// runsCounter counts executions of the "counting-read" op across all
// in-process workers, letting tests prove how many times a fused task
// actually ran (committed or discarded).
var runsCounter atomic.Int64

// startDispatchCluster is startClusterCfg plus an op that reads the
// "counter" broadcast and counts its own executions.
func startDispatchCluster(t *testing.T, n int, cfg Config) (*Executor, []*Worker) {
	t.Helper()
	reg := testRegistry(t)
	reg.MustRegister("counting-read", func(ctx *mbsp.TaskContext, _ mbsp.Partition) (mbsp.Partition, error) {
		runsCounter.Add(1)
		bv, err := ctx.Broadcast("counter")
		if err != nil {
			return nil, err
		}
		return mbsp.Partition{bv.(testCounter).N}, nil
	})
	workers, addrs, err := StartLocalCluster(n, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, w := range workers {
			_ = w.Close()
		}
	})
	exec, err := DialConfig(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = exec.Close() })
	return exec, workers
}

// onTaskDoneRecorder collects streamed completions; OnTaskDone may fire
// concurrently from the per-worker dispatch goroutines.
type onTaskDoneRecorder struct {
	mu   sync.Mutex
	outs map[int]mbsp.Partition
}

func (r *onTaskDoneRecorder) hook(task int, out mbsp.Partition) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.outs == nil {
		r.outs = make(map[int]mbsp.Partition)
	}
	if _, dup := r.outs[task]; dup {
		r.outs[task] = nil // duplicate delivery: force the check below to fail
		return
	}
	r.outs[task] = out
}

// TestDispatchStageFused covers the happy path of the fused framing: the
// broadcast and every task land in one round, outputs match the barrier
// semantics, and completions stream to OnTaskDone exactly once each.
func TestDispatchStageFused(t *testing.T) {
	exec, _ := startCluster(t, 2)
	rec := &onTaskDoneRecorder{}
	outputs, metrics, err := exec.DispatchStage(context.Background(), mbsp.StageSpec{
		Stage:          "assign",
		Op:             "add-broadcast",
		Inputs:         intParts([]int{1, 2}, []int{3}, []int{4, 5}, nil),
		BroadcastID:    "offset",
		BroadcastValue: 100,
		OnTaskDone:     rec.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{101, 102}, {103}, {104, 105}, {}}
	if len(outputs) != len(want) {
		t.Fatalf("outputs = %d partitions, want %d", len(outputs), len(want))
	}
	for task, w := range want {
		if len(outputs[task]) != len(w) {
			t.Fatalf("task %d output %v, want %v", task, outputs[task], w)
		}
		for j, v := range w {
			if outputs[task][j].(int) != v {
				t.Fatalf("task %d item %d = %v, want %d", task, j, outputs[task][j], v)
			}
		}
		streamed, ok := rec.outs[task]
		if !ok || len(streamed) != len(w) {
			t.Fatalf("task %d: OnTaskDone got %v (present %v), want %v", task, streamed, ok, w)
		}
	}
	if len(metrics) != 4 {
		t.Fatalf("metrics = %d entries, want 4", len(metrics))
	}
	for task, m := range metrics {
		if m.TaskID != task || m.Stage != "assign" || m.Retries != 0 {
			t.Errorf("metrics[%d] = %+v", task, m)
		}
	}
	// The fused frames count as one full broadcast delivery per worker.
	bm := exec.BroadcastStats()
	if bm.Fulls != 2 || bm.Deltas != 0 {
		t.Errorf("broadcast metrics = %+v, want 2 fulls", bm)
	}
}

// TestDispatchStageDeltaRejectDiscard pins the discard rule: when a
// worker rejects the fused delta broadcast, the task that rode with it
// executed against the stale model, so the driver must throw that
// response away, deliver the full value, and re-run the task. The op's
// execution counter proves the discarded run happened; the output proves
// only the post-fallback run was committed.
func TestDispatchStageDeltaRejectDiscard(t *testing.T) {
	exec, _ := startDispatchCluster(t, 1, Config{DeltaBroadcast: true})
	ctx := context.Background()

	// Version 1: full value, fused with a task.
	out, _, err := exec.DispatchStage(ctx, mbsp.StageSpec{
		Stage: "s1", Op: "counting-read", Inputs: intParts([]int{0}),
		BroadcastID: "counter", BroadcastValue: testCounter{N: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0].(int) != 1 {
		t.Fatalf("seed read = %v, want 1", out[0][0])
	}

	// Version 2: the delta refuses to apply. The fused task runs against
	// N=1, gets discarded, and re-runs after the full N=10 lands.
	runsCounter.Store(0)
	out, metrics, err := exec.DispatchStage(ctx, mbsp.StageSpec{
		Stage: "s2", Op: "counting-read", Inputs: intParts([]int{0}),
		BroadcastID:    "counter",
		BroadcastValue: testCounter{N: 10},
		BroadcastDelta: testIncr{By: 2, Fail: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0][0].(int); got != 10 {
		t.Fatalf("post-reject read = %d, want the full value 10", got)
	}
	if runs := runsCounter.Load(); runs != 2 {
		t.Fatalf("task ran %d times, want 2 (one discarded, one committed)", runs)
	}
	if metrics[0].Retries != 1 {
		t.Errorf("metrics retries = %d, want 1 for the discarded run", metrics[0].Retries)
	}
	bm := exec.BroadcastStats()
	if bm.Deltas != 0 {
		t.Errorf("broadcast metrics = %+v, want no delta deliveries after reject", bm)
	}
}

// TestDispatchStageDeltaApplied is the counterpart: an applicable fused
// delta is delivered as a delta and the task commits on the first try.
func TestDispatchStageDeltaApplied(t *testing.T) {
	exec, _ := startDispatchCluster(t, 1, Config{DeltaBroadcast: true})
	ctx := context.Background()
	if _, _, err := exec.DispatchStage(ctx, mbsp.StageSpec{
		Stage: "s1", Op: "counting-read", Inputs: intParts([]int{0}),
		BroadcastID: "counter", BroadcastValue: testCounter{N: 1},
	}); err != nil {
		t.Fatal(err)
	}
	runsCounter.Store(0)
	out, _, err := exec.DispatchStage(ctx, mbsp.StageSpec{
		Stage: "s2", Op: "counting-read", Inputs: intParts([]int{0}),
		BroadcastID:    "counter",
		BroadcastValue: testCounter{N: 3},
		BroadcastDelta: testIncr{By: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0][0].(int); got != 3 {
		t.Fatalf("delta read = %d, want 3", got)
	}
	if runs := runsCounter.Load(); runs != 1 {
		t.Fatalf("task ran %d times, want 1", runs)
	}
	if bm := exec.BroadcastStats(); bm.Deltas != 1 {
		t.Errorf("broadcast metrics = %+v, want 1 delta delivery", bm)
	}
}

// TestDispatchStageWorkerLossMidRound kills a worker on its first fused
// task: the stranded tasks must re-dispatch onto the survivor and the
// stage must still return every output.
func TestDispatchStageWorkerLossMidRound(t *testing.T) {
	exec, workers := startClusterCfg(t, 2, faultCfg())
	workers[1].SetFault(func(stage string, task int) (Fault, time.Duration) {
		return FaultCrash, 0
	})
	rec := &onTaskDoneRecorder{}
	outputs, _, err := exec.DispatchStage(context.Background(), mbsp.StageSpec{
		Stage:          "assign",
		Op:             "add-broadcast",
		Inputs:         intParts([]int{1}, []int{2}, []int{3}, []int{4}),
		BroadcastID:    "offset",
		BroadcastValue: 10,
		OnTaskDone:     rec.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	for task, wantV := range []int{11, 12, 13, 14} {
		if len(outputs[task]) != 1 || outputs[task][0].(int) != wantV {
			t.Fatalf("task %d output %v, want [%d]", task, outputs[task], wantV)
		}
		if streamed := rec.outs[task]; len(streamed) != 1 || streamed[0].(int) != wantV {
			t.Fatalf("task %d OnTaskDone %v, want [%d]", task, streamed, wantV)
		}
	}
	if alive := exec.AliveWorkers(); alive != 1 {
		t.Errorf("alive workers = %d, want 1 after the crash", alive)
	}
}

// TestDispatchStageSpeculationBarrier: under speculation the fused
// framing is off — the broadcast is published as a barrier before any
// task ships — and OnTaskDone still fires exactly once per task.
func TestDispatchStageSpeculationBarrier(t *testing.T) {
	exec, _ := startClusterCfg(t, 2, Config{
		Speculation: &mbsp.SpeculationConfig{Multiplier: 1.5, MinCompleted: 2, Poll: time.Millisecond},
	})
	rec := &onTaskDoneRecorder{}
	outputs, _, err := exec.DispatchStage(context.Background(), mbsp.StageSpec{
		Stage:          "assign",
		Op:             "add-broadcast",
		Inputs:         intParts([]int{1}, []int{2}),
		BroadcastID:    "offset",
		BroadcastValue: 5,
		OnTaskDone:     rec.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	for task, wantV := range []int{6, 7} {
		if len(outputs[task]) != 1 || outputs[task][0].(int) != wantV {
			t.Fatalf("task %d output %v, want [%d]", task, outputs[task], wantV)
		}
		if streamed := rec.outs[task]; len(streamed) != 1 || streamed[0].(int) != wantV {
			t.Fatalf("task %d OnTaskDone %v, want [%d]", task, streamed, wantV)
		}
	}
}
