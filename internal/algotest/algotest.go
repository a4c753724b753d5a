// Package algotest provides a conformance suite for implementations of
// the core.Algorithm API. Every shipped algorithm (clustream, denstream,
// dstream, clustree, simple) runs the same battery: micro-cluster
// contract, snapshot semantics, factory/params round-trip, gob wire
// transport, an end-to-end mini-batch pipeline run, the sequential
// baseline, and a pipeline run over the TCP executor.
package algotest

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"diststream/internal/core"
	"diststream/internal/mbsp"
	"diststream/internal/mbsp/rpcexec"
	"diststream/internal/seq"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
)

// Suite describes the algorithm under test.
type Suite struct {
	// New returns a fresh algorithm instance.
	New func() core.Algorithm
	// Register installs the factory into a registry.
	Register func(*core.AlgorithmRegistry) error
	// RegisterWire registers gob types; may be called multiple times.
	RegisterWire func()
	// Dim is the dimensionality the suite streams at (>= 2).
	Dim int
	// SeparatesBlobs asserts that the offline clustering puts the two
	// test blobs in different macro-clusters. Disable for algorithms
	// whose offline output needs more tuning than the generic stream
	// provides.
	SeparatesBlobs bool
}

// TwoBlobStream builds the suite's standard workload: two well-separated
// Gaussian-free blobs with alternating arrivals.
func TwoBlobStream(n, dim int, rate float64) []stream.Record {
	recs := make([]stream.Record, n)
	for i := range recs {
		v := vector.New(dim)
		jitter := 0.1 * float64(i%5)
		if i%2 == 0 {
			v[0], v[1] = 0+jitter, 0
		} else {
			v[0], v[1] = 20+jitter, 20
		}
		recs[i] = stream.Record{
			Seq:       uint64(i),
			Timestamp: vclock.Time(float64(i) / rate),
			Values:    v,
			Label:     i % 2,
		}
	}
	return recs
}

// Run executes the conformance battery.
func Run(t *testing.T, s Suite) {
	t.Helper()
	if s.Dim < 2 {
		t.Fatal("algotest: Dim must be >= 2")
	}
	t.Run("MicroClusterContract", func(t *testing.T) { microClusterContract(t, s) })
	t.Run("SnapshotContract", func(t *testing.T) { snapshotContract(t, s) })
	t.Run("FactoryRoundTrip", func(t *testing.T) { factoryRoundTrip(t, s) })
	t.Run("GobRoundTrip", func(t *testing.T) { gobRoundTrip(t, s) })
	t.Run("PipelineRun", func(t *testing.T) { pipelineRun(t, s) })
	t.Run("SequentialRun", func(t *testing.T) { sequentialRun(t, s) })
	t.Run("PipelineOverTCP", func(t *testing.T) { pipelineOverTCP(t, s) })
	t.Run("OrderedMatchesAcrossParallelism", func(t *testing.T) { parallelismInvariance(t, s) })
	t.Run("StateCodecRoundTrip", func(t *testing.T) { stateCodecRoundTrip(t, s) })
}

// stateCodecRoundTrip checks the checkpoint state codec: a model
// populated by a real pipeline run must survive EncodeState/DecodeState
// deep-equal, and corrupt input must yield errors, never panics.
func stateCodecRoundTrip(t *testing.T, s Suite) {
	pl := NewPipeline(t, s, 2, core.OrderAware, 1)
	if _, err := pl.Run(stream.NewSliceSource(TwoBlobStream(600, s.Dim, 100))); err != nil {
		t.Fatal(err)
	}
	algo := s.New()
	codec, ok := algo.(core.StateCodec)
	if !ok {
		t.Fatalf("%s does not implement core.StateCodec", algo.Name())
	}
	model := pl.Model()
	data, err := codec.EncodeState(model)
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(model.List(), back.List()) {
		t.Error("micro-clusters changed across the codec round trip")
	}
	if back.Now() != model.Now() || !reflect.DeepEqual(back.IDs(), model.IDs()) {
		t.Error("model clock or id order changed across the codec round trip")
	}
	// A restored model must keep allocating ids above every live one.
	id := back.Add(algo.Create(rec(9999, back.Now(), s.Dim, 5, 5)))
	if back.Get(id) == nil {
		t.Error("restored model cannot admit a new micro-cluster")
	}
	for name, bad := range map[string][]byte{
		"nil":       nil,
		"garbage":   []byte("not a model state"),
		"truncated": data[:len(data)/2],
	} {
		if _, err := codec.DecodeState(bad); err == nil {
			t.Errorf("%s input decoded without error", name)
		}
	}
}

func rec(seq uint64, ts vclock.Time, dim int, x0, x1 float64) stream.Record {
	v := vector.New(dim)
	v[0], v[1] = x0, x1
	return stream.Record{Seq: seq, Timestamp: ts, Values: v}
}

func microClusterContract(t *testing.T, s Suite) {
	algo := s.New()
	r0 := rec(0, 1, s.Dim, 1, 1)
	mc := algo.Create(r0)
	if mc.Weight() <= 0 {
		t.Errorf("new MC weight = %v, want > 0", mc.Weight())
	}
	if mc.CreatedAt() != 1 || mc.LastUpdated() != 1 {
		t.Errorf("timestamps: created=%v updated=%v, want 1", mc.CreatedAt(), mc.LastUpdated())
	}
	mc.SetID(42)
	if mc.ID() != 42 {
		t.Errorf("ID = %d after SetID(42)", mc.ID())
	}
	if got := mc.Center(); len(got) != s.Dim {
		t.Fatalf("center dim = %d, want %d", len(got), s.Dim)
	}
	// Clone independence.
	clone := mc.Clone()
	w0 := mc.Weight()
	algo.Update(clone, rec(1, 2, s.Dim, 1.1, 1))
	if mc.Weight() != w0 {
		t.Error("updating a clone mutated the original")
	}
	if clone.Weight() <= w0 {
		t.Errorf("update did not grow weight: %v -> %v", w0, clone.Weight())
	}
	if clone.LastUpdated() != 2 {
		t.Errorf("LastUpdated = %v after update at t=2", clone.LastUpdated())
	}
	if clone.ID() != 42 {
		t.Error("clone lost id")
	}
	// Center tracks absorbed mass.
	c := clone.Center()
	if c[0] <= 0.9 || c[0] >= 1.2 {
		t.Errorf("center[0] = %v, want within absorbed range", c[0])
	}
	// AbsorbIntoNew accepts a colocated record and rejects a distant one.
	fresh := algo.Create(rec(5, 3, s.Dim, 0, 0))
	if !algo.AbsorbIntoNew(fresh, rec(6, 3.1, s.Dim, 0.01, 0.01)) {
		t.Error("AbsorbIntoNew rejected a colocated record")
	}
	if algo.AbsorbIntoNew(fresh, rec(7, 3.2, s.Dim, 500, 500)) {
		t.Error("AbsorbIntoNew accepted a distant record")
	}
}

func snapshotContract(t *testing.T, s Suite) {
	algo := s.New()
	// Empty snapshot.
	empty := algo.NewSnapshot(nil)
	if _, _, ok := empty.Nearest(rec(0, 0, s.Dim, 0, 0)); ok {
		t.Error("empty snapshot returned ok")
	}
	if empty.Len() != 0 {
		t.Errorf("empty Len = %d", empty.Len())
	}
	// Populated snapshot.
	mcs, err := algo.Init(TwoBlobStream(200, s.Dim, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(mcs) < 2 {
		t.Fatalf("init produced %d micro-clusters, want >= 2", len(mcs))
	}
	for i, mc := range mcs {
		mc.SetID(uint64(i + 1))
	}
	snap := algo.NewSnapshot(mcs)
	if snap.Len() != len(mcs) {
		t.Errorf("snapshot Len = %d, want %d", snap.Len(), len(mcs))
	}
	if snap.Get(1) == nil {
		t.Error("Get(1) = nil")
	}
	if snap.Get(9999) != nil {
		t.Error("Get(9999) != nil")
	}
	// A record at a blob must be absorbable by a micro-cluster near it.
	id, absorbable, ok := snap.Nearest(rec(999, 3, s.Dim, 0.05, 0))
	if !ok {
		t.Fatal("Nearest found nothing")
	}
	if !absorbable {
		t.Error("record at blob center not absorbable")
	}
	near := snap.Get(id)
	if near == nil {
		t.Fatal("Nearest returned unknown id")
	}
	if d := vector.Distance(near.Center(), vector.New(s.Dim)); d > 10 {
		t.Errorf("nearest MC is %v away from the blob", d)
	}
	// A far-away record must not be absorbable.
	if _, absorbable, ok := snap.Nearest(rec(1000, 3, s.Dim, 5000, 5000)); ok && absorbable {
		t.Error("distant record reported absorbable")
	}
}

func factoryRoundTrip(t *testing.T, s Suite) {
	reg := core.NewAlgorithmRegistry()
	if err := s.Register(reg); err != nil {
		t.Fatal(err)
	}
	orig := s.New()
	params := orig.Params()
	if params.Name == "" {
		t.Fatal("Params().Name empty")
	}
	rebuilt, err := reg.New(params)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Name() != orig.Name() {
		t.Errorf("rebuilt name %q != %q", rebuilt.Name(), orig.Name())
	}
	// The rebuilt algorithm must expose identical params (full fidelity).
	p2 := rebuilt.Params()
	for k, v := range params.Floats {
		if p2.Float(k, -12345) != v {
			t.Errorf("float param %q lost: %v vs %v", k, p2.Float(k, -12345), v)
		}
	}
	for k, v := range params.Ints {
		if p2.Int(k, -12345) != v {
			t.Errorf("int param %q lost: %v vs %v", k, p2.Int(k, -12345), v)
		}
	}
	// And it must behave: create + update.
	mc := rebuilt.Create(rec(0, 1, s.Dim, 1, 1))
	rebuilt.Update(mc, rec(1, 2, s.Dim, 1, 1))
	if mc.Weight() <= 1 {
		t.Error("rebuilt algorithm update broken")
	}
}

func gobRoundTrip(t *testing.T, s Suite) {
	s.RegisterWire()
	core.RegisterWireTypes()
	algo := s.New()
	mcs, err := algo.Init(TwoBlobStream(100, s.Dim, 100))
	if err != nil {
		t.Fatal(err)
	}
	for i, mc := range mcs {
		mc.SetID(uint64(i + 1))
	}
	snap := algo.NewSnapshot(mcs)

	// The model through gob as the delta from the empty model (what a
	// model frame carries without a columnar codec), rebuilt on arrival.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(core.FullDelta(algo.Params(), 1, mcs)); err != nil {
		t.Fatalf("encode model: %v", err)
	}
	var d core.SnapshotDelta
	if err := gob.NewDecoder(&buf).Decode(&d); err != nil {
		t.Fatalf("decode model: %v", err)
	}
	m, err := core.ApplySnapshotDelta(s.New(), nil, &d)
	if err != nil {
		t.Fatalf("apply model: %v", err)
	}
	decoded := m.Search
	if decoded.Len() != snap.Len() {
		t.Errorf("decoded Len = %d, want %d", decoded.Len(), snap.Len())
	}
	probe := rec(7, 5, s.Dim, 0.05, 0)
	id1, abs1, ok1 := snap.Nearest(probe)
	id2, abs2, ok2 := decoded.Nearest(probe)
	if id1 != id2 || abs1 != abs2 || ok1 != ok2 {
		t.Errorf("decoded snapshot disagrees: (%d,%v,%v) vs (%d,%v,%v)",
			id1, abs1, ok1, id2, abs2, ok2)
	}
	// Micro-cluster through gob inside an Update (what the shuffle does).
	buf.Reset()
	type envelope struct{ V any }
	upd := core.Update{Kind: core.KindUpdated, MC: mcs[0], Absorbed: 1, OrderTime: 1}
	if err := gob.NewEncoder(&buf).Encode(envelope{V: upd}); err != nil {
		t.Fatalf("encode update: %v", err)
	}
	var env2 envelope
	if err := gob.NewDecoder(&buf).Decode(&env2); err != nil {
		t.Fatalf("decode update: %v", err)
	}
	u2, ok := env2.V.(core.Update)
	if !ok {
		t.Fatalf("decoded %T is not an Update", env2.V)
	}
	if u2.MC.ID() != mcs[0].ID() || u2.MC.Weight() != mcs[0].Weight() {
		t.Error("micro-cluster state lost in transit")
	}
}

// NewPipeline wires a full local pipeline for the suite's algorithm.
func NewPipeline(t *testing.T, s Suite, p int, order core.OrderMode, batch vclock.Duration) *core.Pipeline {
	t.Helper()
	algos := core.NewAlgorithmRegistry()
	if err := s.Register(algos); err != nil {
		t.Fatal(err)
	}
	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, algos); err != nil {
		t.Fatal(err)
	}
	exec, err := mbsp.NewLocalExecutor(mbsp.LocalConfig{Parallelism: p, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = exec.Close() })
	eng, err := mbsp.NewEngine(exec)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewPipeline(core.Config{
		Algorithm:     s.New(),
		Engine:        eng,
		BatchInterval: batch,
		Order:         order,
		InitRecords:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func pipelineRun(t *testing.T, s Suite) {
	pl := NewPipeline(t, s, 4, core.OrderAware, 1)
	recs := TwoBlobStream(1200, s.Dim, 100)
	stats, err := pl.Run(stream.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1100 {
		t.Errorf("Records = %d, want 1100", stats.Records)
	}
	if pl.Model().Len() == 0 {
		t.Fatal("empty model after run")
	}
	clustering, err := pl.Offline()
	if err != nil {
		t.Fatal(err)
	}
	if s.SeparatesBlobs {
		a := clustering.Assign(blobPoint(s.Dim, 0))
		b := clustering.Assign(blobPoint(s.Dim, 20))
		if a < 0 || b < 0 || a == b {
			t.Errorf("offline failed to separate blobs: %d vs %d", a, b)
		}
	}
}

func blobPoint(dim int, base float64) vector.Vector {
	v := vector.New(dim)
	v[0], v[1] = base, base
	return v
}

func sequentialRun(t *testing.T, s Suite) {
	runner, err := seq.NewRunner(seq.Config{Algorithm: s.New(), InitRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := runner.Run(stream.NewSliceSource(TwoBlobStream(800, s.Dim, 100)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 700 {
		t.Errorf("Records = %d, want 700", stats.Records)
	}
	if runner.Model().Len() == 0 {
		t.Fatal("empty model after sequential run")
	}
	if _, err := runner.Offline(); err != nil {
		t.Fatal(err)
	}
}

func pipelineOverTCP(t *testing.T, s Suite) {
	s.RegisterWire()
	core.RegisterWireTypes()
	algos := core.NewAlgorithmRegistry()
	if err := s.Register(algos); err != nil {
		t.Fatal(err)
	}
	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, algos); err != nil {
		t.Fatal(err)
	}
	workers, addrs, err := rpcexec.StartLocalCluster(2, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range workers {
			_ = w.Close()
		}
	}()
	exec, err := rpcexec.Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	eng, err := mbsp.NewEngine(exec)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewPipeline(core.Config{
		Algorithm:     s.New(),
		Engine:        eng,
		BatchInterval: 1,
		InitRecords:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pl.Run(stream.NewSliceSource(TwoBlobStream(500, s.Dim, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 400 {
		t.Errorf("Records = %d, want 400", stats.Records)
	}
	if pl.Model().Len() == 0 {
		t.Error("empty model after TCP run")
	}
}

// parallelismInvariance checks the order-aware guarantee: p=1 and p=8
// produce closely matching models. Exact equality is not required — the
// outlier pre-merge granularity legitimately depends on the number of
// outlier groups (one per task, §V-C) — but record mass and model size
// must agree tightly, as the paper's "comparable quality" claim demands.
func parallelismInvariance(t *testing.T, s Suite) {
	run := func(p int) (int, float64) {
		pl := NewPipeline(t, s, p, core.OrderAware, 2)
		if _, err := pl.Run(stream.NewSliceSource(TwoBlobStream(800, s.Dim, 100))); err != nil {
			t.Fatal(err)
		}
		return pl.Model().Len(), pl.Model().TotalWeight()
	}
	n1, w1 := run(1)
	n8, w8 := run(8)
	if n8 < n1-3 || n8 > n1+3 {
		t.Errorf("model size diverged across parallelism: %d vs %d", n1, n8)
	}
	if diff := math.Abs(w1-w8) / (w1 + 1e-12); diff > 5e-3 {
		t.Errorf("model weight diverged across parallelism: %v vs %v", w1, w8)
	}
}
