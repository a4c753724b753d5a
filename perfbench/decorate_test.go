package main

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"diststream/internal/core"
	"diststream/internal/harness"
	"diststream/internal/mbsp"
	"diststream/internal/mbsp/rpcexec"
)

// optional lists every optional interface a caller type-asserts on an
// executor or an algorithm.
var optional = map[string]reflect.Type{
	"Capable":              reflect.TypeOf((*mbsp.Capable)(nil)).Elem(),
	"StageDispatcher":      reflect.TypeOf((*mbsp.StageDispatcher)(nil)).Elem(),
	"DeltaBroadcaster":     reflect.TypeOf((*mbsp.DeltaBroadcaster)(nil)).Elem(),
	"MembershipReconciler": reflect.TypeOf((*mbsp.MembershipReconciler)(nil)).Elem(),
	"AliveWorkers":         reflect.TypeOf((*interface{ AliveWorkers() int })(nil)).Elem(),
	"SnapshotDiffer":       reflect.TypeOf((*core.SnapshotDiffer)(nil)).Elem(),
	"StateCodec":           reflect.TypeOf((*core.StateCodec)(nil)).Elem(),
	"ShardedGlobalUpdater": reflect.TypeOf((*core.ShardedGlobalUpdater)(nil)).Elem(),
}

func implemented(v any) []string {
	var out []string
	for name, iface := range optional {
		if reflect.TypeOf(v).Implements(iface) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func sameInterfaces(t *testing.T, inner, wrapped any) {
	t.Helper()
	want, got := implemented(inner), implemented(wrapped)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%T implements %v, its decorator %v", inner, want, got)
	}
}

func opsRegistry(t *testing.T) *mbsp.Registry {
	t.Helper()
	algos, err := harness.NewAlgorithmRegistry()
	if err != nil {
		t.Fatal(err)
	}
	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, algos); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestExecutorDecoratorForwardsCapabilities(t *testing.T) {
	reg := opsRegistry(t)
	local, err := mbsp.NewLocalExecutor(mbsp.LocalConfig{Parallelism: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	workers, addrs, err := rpcexec.StartLocalCluster(1, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer workers[0].Close()
	remote, err := rpcexec.DialConfig(addrs, rpcexec.Config{DeltaBroadcast: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []mbsp.Executor{local, remote} {
		wrapped, err := traceExecutor(inner, newRecorder(), &execStats{})
		if err != nil {
			t.Fatal(err)
		}
		sameInterfaces(t, inner, wrapped)
		if got, want := wrapped.(mbsp.Capable).Capabilities(), inner.(mbsp.Capable).Capabilities(); got != want {
			t.Fatalf("%T capabilities %+v, decorator %+v", inner, want, got)
		}
		if err := wrapped.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// bareExecutor has none of the optional capabilities.
type bareExecutor struct{ mbsp.Executor }

func TestExecutorDecoratorRefusesCapabilitySetsItCannotMirror(t *testing.T) {
	local, err := mbsp.NewLocalExecutor(mbsp.LocalConfig{Parallelism: 1, Registry: opsRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traceExecutor(bareExecutor{local}, newRecorder(), &execStats{}); err == nil {
		t.Fatal("decorated an executor without Capable and StageDispatcher")
	}
}

func TestAlgorithmDecoratorForwardsCapabilities(t *testing.T) {
	algos, err := harness.NewAlgorithmRegistry()
	if err != nil {
		t.Fatal(err)
	}
	traced, err := traceAlgorithms(algos, newRecorder(), sideWorker)
	if err != nil {
		t.Fatal(err)
	}
	ds := harness.Dataset{Records: testInput(10).ds.Records, ClusterRadius: 1, LeadRadius: 1}
	for _, name := range harness.AlgorithmNames {
		inner, err := harness.NewAlgorithm(name, ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, full := inner.(algoCapabilities)
		wrapped, err := traceAlgorithm(inner, newRecorder(), sideDriver)
		if !full {
			if err == nil {
				t.Fatalf("decorated %s, which lacks a capability the decorator claims", name)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		sameInterfaces(t, inner, wrapped)
		if wrapped.Name() != inner.Name() || !reflect.DeepEqual(wrapped.Params(), inner.Params()) {
			t.Fatalf("%s: decorator changed the algorithm's identity", name)
		}
		// Workers rebuild the algorithm from Params through the registry.
		rebuilt, err := traced.New(inner.Params())
		if err != nil {
			t.Fatal(err)
		}
		sameInterfaces(t, inner, rebuilt)
	}
}

func TestOpsDecoratorKeepsEveryOp(t *testing.T) {
	reg := opsRegistry(t)
	tr := newRecorder()
	traced, err := traceOps(reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	want, got := reg.Names(), traced.Names()
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("ops %v, decorated registry %v", want, got)
	}
	// A decorated op still runs the inner op: an assign task without
	// broadcasts fails exactly as the inner one does, and is recorded.
	exec, err := mbsp.NewLocalExecutor(mbsp.LocalConfig{Parallelism: 1, Registry: traced})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	if _, _, err := exec.RunTasks(context.Background(), "assign", core.OpAssign, []mbsp.Partition{{}}); err == nil {
		t.Fatal("assign ran without a model broadcast")
	}
	if spans := tr.snapshot(); len(spans) != 1 || spans[0].Name != "ops.assign_task" {
		t.Fatalf("recorded %+v, want one ops.assign_task span", spans)
	}
}
