package mbsp

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestDispatchStageLocal drives the local executor's one stage runner
// through {speculation off, on} x {OnTaskDone nil, set} x {fewer tasks
// than workers, more}: outputs come back in input order, the fused
// broadcast is visible to every task, the callback fires exactly once per
// task with that task's output, and every task has its metrics.
func TestDispatchStageLocal(t *testing.T) {
	const p = 3
	reg := newTestRegistry(t)
	for _, spec := range []*SpeculationConfig{nil, {Multiplier: 1.5, MinCompleted: 2, Poll: time.Millisecond}} {
		for _, withCallback := range []bool{false, true} {
			for _, n := range []int{2, 7} {
				name := fmt.Sprintf("speculation=%v/callback=%v/n=%d", spec != nil, withCallback, n)
				t.Run(name, func(t *testing.T) {
					exec := newSpecLocal(t, p, reg, LocalConfig{Speculation: spec})
					inputs := make([]Partition, n)
					for task := range inputs {
						inputs[task] = Partition{task, 10 * task}
					}
					var mu sync.Mutex
					calls := make(map[int]int)
					streamed := make(map[int]Partition)
					stage := StageSpec{
						Stage:          "assign",
						Op:             "add-broadcast",
						Inputs:         inputs,
						BroadcastID:    "offset",
						BroadcastValue: 1000,
					}
					if withCallback {
						stage.OnTaskDone = func(task int, out Partition) {
							mu.Lock()
							defer mu.Unlock()
							calls[task]++
							streamed[task] = out
						}
					}
					outputs, metrics, err := exec.DispatchStage(context.Background(), stage)
					if err != nil {
						t.Fatal(err)
					}
					if len(outputs) != n || len(metrics) != n {
						t.Fatalf("got %d outputs, %d metrics; want %d each", len(outputs), len(metrics), n)
					}
					for task := 0; task < n; task++ {
						want := []int{task + 1000, 10*task + 1000}
						if len(outputs[task]) != 2 || outputs[task][0] != want[0] || outputs[task][1] != want[1] {
							t.Errorf("task %d output %v, want %v", task, outputs[task], want)
						}
						m := metrics[task]
						if m.Stage != "assign" || m.TaskID != task || m.InItems != 2 || m.OutItems != 2 {
							t.Errorf("task %d metrics %+v", task, m)
						}
						if spec == nil && m.WorkerID != task%p {
							t.Errorf("task %d ran on worker %d, want %d", task, m.WorkerID, task%p)
						}
						if !withCallback {
							continue
						}
						if calls[task] != 1 {
							t.Errorf("task %d: OnTaskDone fired %d times, want 1", task, calls[task])
						}
						if got := streamed[task]; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
							t.Errorf("task %d: OnTaskDone got %v, want %v", task, got, want)
						}
					}
					if withCallback && len(calls) != n {
						t.Errorf("OnTaskDone fired for %d tasks, want %d", len(calls), n)
					}
				})
			}
		}
	}
}
