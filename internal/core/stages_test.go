package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"diststream/internal/mbsp"
)

// toyAssign shifts each record by the model broadcast and keys it.
func toyAssign(ctx *mbsp.TaskContext, in mbsp.Partition) (mbsp.Partition, error) {
	bv, err := ctx.Broadcast(BroadcastModel)
	if err != nil {
		return nil, err
	}
	off := bv.(int)
	out := make(mbsp.Partition, len(in))
	for i, item := range in {
		v := item.(int) + off
		out[i] = mbsp.KeyedItem{Key: uint64(v % 5), Item: v}
	}
	return out, nil
}

// toyLocal scales each grouped record by the config broadcast.
func toyLocal(ctx *mbsp.TaskContext, in mbsp.Partition) (mbsp.Partition, error) {
	bv, err := ctx.Broadcast(BroadcastConfig)
	if err != nil {
		return nil, err
	}
	scale := bv.(int)
	var out mbsp.Partition
	for _, item := range in {
		for _, v := range item.(mbsp.Group).Items {
			out = append(out, v.(int)*scale)
		}
	}
	return out, nil
}

// newStageEngine builds a p-worker local engine whose assign and
// local-update ops are the given functions.
func newStageEngine(t *testing.T, p int, assign, local mbsp.OpFunc) *mbsp.Engine {
	t.Helper()
	reg := mbsp.NewRegistry()
	reg.MustRegister(OpAssign, assign)
	reg.MustRegister(OpLocalUpdate, local)
	exec, err := mbsp.NewLocalExecutor(mbsp.LocalConfig{Parallelism: p, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = exec.Close() })
	eng, err := mbsp.NewEngine(exec)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func toyStageJob(p int) *stageJob {
	inputs := make([]mbsp.Partition, p)
	for i := 0; i < 40; i++ {
		inputs[i%p] = append(inputs[i%p], i*7)
	}
	return &stageJob{model: 3, config: 10, inputs: inputs}
}

// TestErrorPrefixes pins the phase prefixes runStages puts on its
// errors, which the pipeline's error messages depend on.
func TestErrorPrefixes(t *testing.T) {
	failing := func(*mbsp.TaskContext, mbsp.Partition) (mbsp.Partition, error) {
		return nil, errors.New("injected op failure")
	}
	// unkeyed emits plain ints: the shuffle must reject them.
	unkeyed := func(_ *mbsp.TaskContext, in mbsp.Partition) (mbsp.Partition, error) {
		return in, nil
	}
	cases := []struct {
		phase         string
		assign, local mbsp.OpFunc
		want          string
	}{
		{"assign", failing, toyLocal, "assign stage:"},
		{"shuffle", unkeyed, toyLocal, "shuffle:"},
		{"local-update", toyAssign, failing, "local-update stage:"},
	}
	for _, c := range cases {
		t.Run(c.phase, func(t *testing.T) {
			eng := newStageEngine(t, 2, c.assign, c.local)
			if _, err := runStages(context.Background(), eng, toyStageJob(2)); err == nil ||
				!strings.Contains(err.Error(), c.want) {
				t.Errorf("%s error = %v, want %q prefix", c.phase, err, c.want)
			}
		})
	}
}

// TestRunStagesMatchesBarrierStages runs two batches through runStages
// and requires the same collected updates, in the same order, as the
// stages run one barrier at a time (broadcast, MapStage, ShuffleByKey,
// MapStage): the fused broadcast and the streamed shuffle count change
// when work happens, never what it produces. The second batch ships no
// config, so it also proves the once-per-run config broadcast persists
// on workers across batches.
func TestRunStagesMatchesBarrierStages(t *testing.T) {
	ctx := context.Background()
	const p = 4
	ref := newStageEngine(t, p, toyAssign, toyLocal)
	job := toyStageJob(p)
	if err := ref.Broadcast(ctx, BroadcastConfig, job.config); err != nil {
		t.Fatal(err)
	}
	if err := ref.Broadcast(ctx, BroadcastModel, job.model); err != nil {
		t.Fatal(err)
	}
	keyed, err := ref.MapStage(ctx, "assign", OpAssign, job.inputs)
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := mbsp.ShuffleByKey(keyed, p)
	if err != nil {
		t.Fatal(err)
	}
	updates, err := ref.MapStage(ctx, "local-update", OpLocalUpdate, grouped)
	if err != nil {
		t.Fatal(err)
	}
	want := mbsp.Collect(updates)
	if len(want) != 40 {
		t.Fatalf("reference produced %d updates, want 40", len(want))
	}

	eng := newStageEngine(t, p, toyAssign, toyLocal)
	for batch, withConfig := range []bool{true, false} {
		job := toyStageJob(p)
		if !withConfig {
			job.config = nil
		}
		res, err := runStages(ctx, eng, job)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if len(res.updates) != len(want) {
			t.Fatalf("batch %d: %d updates, want %d", batch, len(res.updates), len(want))
		}
		for i := range want {
			if res.updates[i] != want[i] {
				t.Errorf("batch %d update %d: got %v, want %v", batch, i, res.updates[i], want[i])
			}
		}
	}
}
