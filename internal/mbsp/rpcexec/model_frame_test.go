package rpcexec

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diststream/internal/clustream"
	"diststream/internal/core"
	"diststream/internal/mbsp"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
	"diststream/internal/wire"
)

// frameLog records every model frame the executor encodes: full frames
// by version, and delta frames.
type frameLog struct {
	mu     sync.Mutex
	full   map[uint64][][]byte
	deltas [][]byte
}

// logFrames wraps the executor's value encoder for the test's duration.
func logFrames(t *testing.T) *frameLog {
	t.Helper()
	l := &frameLog{full: make(map[uint64][][]byte)}
	prev := encodeValue
	encodeValue = func(v mbsp.Item) ([]byte, bool, error) {
		frame, ok, err := prev(v)
		l.mu.Lock()
		defer l.mu.Unlock()
		switch m := v.(type) {
		case *core.ModelBroadcast:
			l.full[m.Version] = append(l.full[m.Version], frame)
		case *core.SnapshotDelta:
			l.deltas = append(l.deltas, frame)
		}
		return frame, ok, err
	}
	t.Cleanup(func() { encodeValue = prev })
	return l
}

func (l *frameLog) fullFrames(version uint64) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.full[version]
}

// modelCluster starts n workers running the pipeline ops over algos, and
// dials them with delta broadcast on.
func modelCluster(t *testing.T, n int, algos *core.AlgorithmRegistry) (*Executor, []*Worker) {
	t.Helper()
	core.RegisterWireTypes()
	clustream.RegisterWireTypes()
	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, algos); err != nil {
		t.Fatal(err)
	}
	workers, addrs, err := StartLocalCluster(n, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, w := range workers {
			_ = w.Close()
		}
	})
	exec, err := DialConfig(addrs, Config{DeltaBroadcast: true, MaxRetries: 1, Backoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = exec.Close() })
	return exec, workers
}

// cluMCs builds n CluStream micro-clusters; the first `bumped` carry an
// extra point, so two lists differ in exactly those.
func cluMCs(n, bumped int) []core.MicroCluster {
	out := make([]core.MicroCluster, n)
	for i := range out {
		cf1 := vector.Vector{float64(i), 0.5 * float64(i), 1}
		cf2 := vector.Vector{cf1[0] * cf1[0], cf1[1] * cf1[1], 1}
		mc := &clustream.MC{Id: uint64(i + 1), CF1X: cf1, CF2X: cf2, CF1T: float64(i), CF2T: float64(i * i), N: 4, Born: 1, Last: 2}
		if i < bumped {
			mc.N++
			mc.Last = 3
		}
		out[i] = mc
	}
	return out
}

// workerModel returns the model value a worker holds.
func workerModel(t *testing.T, w *Worker) *core.ModelBroadcast {
	t.Helper()
	v, ok := w.broadcasts.Get(core.BroadcastModel)
	if !ok {
		t.Fatalf("worker %d holds no model", w.id)
	}
	m, ok := v.(*core.ModelBroadcast)
	if !ok {
		t.Fatalf("worker %d holds a %T model, want *core.ModelBroadcast", w.id, v)
	}
	return m
}

// TestFullModelFrameIsFromEmptyDeltaEncodedOnce pins the one model frame:
// a fresh or redialed worker's full model is the columnar delta from the
// empty model, rebuilt on the worker; it is encoded once per version no
// matter how many workers need it, and not at all when every worker takes
// the delta.
func TestFullModelFrameIsFromEmptyDeltaEncodedOnce(t *testing.T) {
	algos := core.NewAlgorithmRegistry()
	if err := clustream.Register(algos); err != nil {
		t.Fatal(err)
	}
	log := logFrames(t)
	exec, workers := modelCluster(t, 2, algos)
	ctx := context.Background()
	algo := clustream.New(clustream.Config{Dim: 3, MaxMicroClusters: 64})
	listA, listB := cluMCs(40, 0), cluMCs(40, 3)

	// checkFull holds version's one full frame to the from-empty delta of
	// list, columnar, and every worker to the list it rebuilt.
	checkFull := func(version uint64, list []core.MicroCluster) {
		t.Helper()
		frames := log.fullFrames(version)
		if len(frames) != 1 {
			t.Fatalf("version %d: full frame encoded %d times, want once", version, len(frames))
		}
		want, err := wire.EncodeModel(core.FullDelta(algo.Params(), version, list))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frames[0], want) {
			t.Errorf("version %d: full frame is not the delta from the empty model", version)
		}
		var viaGob core.SnapshotDelta
		if gob.NewDecoder(bytes.NewReader(frames[0][2:])).Decode(&viaGob) == nil {
			t.Errorf("version %d: full frame went through gob, want columnar", version)
		}
		d, err := wire.DecodeModel(frames[0])
		if err != nil {
			t.Fatal(err)
		}
		if d.FromVersion != 0 || d.Version != version || len(d.Removed) != 0 || len(d.Upserts) != len(list) {
			t.Errorf("version %d: full frame spans %d→%d with %d upserts, %d removals; want 0→%d with %d upserts",
				version, d.FromVersion, d.Version, len(d.Upserts), len(d.Removed), version, len(list))
		}
	}
	checkWorkers := func(list []core.MicroCluster) {
		t.Helper()
		for _, w := range workers {
			m := workerModel(t, w)
			if core.ChecksumMCs(m.MCs) != core.ChecksumMCs(list) {
				t.Errorf("worker %d holds a different micro-cluster list", w.id)
			}
			if _, ok := m.Search.(*clustream.Snapshot); !ok || m.Search.Len() != len(list) {
				t.Errorf("worker %d rebuilt a %T search snapshot of %d", w.id, m.Search, m.Search.Len())
			}
		}
	}

	// Two fresh workers: one encode serves both.
	if err := exec.Broadcast(ctx, core.BroadcastModel, core.NewModelBroadcast(algo, 1, listA)); err != nil {
		t.Fatal(err)
	}
	checkFull(1, listA)
	checkWorkers(listA)

	// Both workers hold version 1: the delta reaches both, and version 2
	// is never encoded in full.
	dAB, ok := algo.DiffState(listA, listB)
	if !ok {
		t.Fatal("diff declined")
	}
	if err := exec.BroadcastDelta(ctx, core.BroadcastModel, core.NewModelBroadcast(algo, 2, listB), dAB); err != nil {
		t.Fatal(err)
	}
	if n := len(log.fullFrames(2)); n != 0 {
		t.Errorf("version 2 encoded in full %d times though every worker took the delta", n)
	}
	if st := exec.BroadcastStats(); st.Deltas != 2 || st.Fulls != 2 {
		t.Errorf("stats = %+v, want 2 fulls then 2 deltas", st)
	}
	checkWorkers(listB)

	// Worker 0 redials: its replay and its full fallback share version
	// 3's one encode, while worker 1 takes the delta.
	wc := exec.conns[0]
	wc.mu.Lock()
	wc.teardown()
	wc.mu.Unlock()
	dBA, ok := algo.DiffState(listB, listA)
	if !ok {
		t.Fatal("diff declined")
	}
	if err := exec.BroadcastDelta(ctx, core.BroadcastModel, core.NewModelBroadcast(algo, 3, listA), dBA); err != nil {
		t.Fatal(err)
	}
	checkFull(3, listA)
	checkWorkers(listA)
	if st := exec.BroadcastStats(); st.Deltas != 3 {
		t.Errorf("stats = %+v, want the healthy worker's delta", st)
	}
}

// codeclessName is CluStream under a name no micro-cluster codec is
// registered for, so every model frame takes wire's gob fallback.
const codeclessName = "codecless-clustream"

type codeclessAlgo struct{ *clustream.Algorithm }

func newCodeclessAlgo(p core.Params) (core.Algorithm, error) {
	p.Name = clustream.Name
	inner := core.NewAlgorithmRegistry()
	if err := clustream.Register(inner); err != nil {
		return nil, err
	}
	a, err := inner.New(p)
	if err != nil {
		return nil, err
	}
	return codeclessAlgo{a.(*clustream.Algorithm)}, nil
}

func (a codeclessAlgo) Name() string { return codeclessName }

func (a codeclessAlgo) Params() core.Params {
	p := a.Algorithm.Params()
	p.Name = codeclessName
	return p
}

func (a codeclessAlgo) NewSnapshot(mcs []core.MicroCluster) core.Snapshot {
	return guardedSnapshot{a.Algorithm.NewSnapshot(mcs)}
}

func (a codeclessAlgo) DiffState(old, new []core.MicroCluster) (*core.SnapshotDelta, bool) {
	d, ok := a.Algorithm.DiffState(old, new)
	if ok {
		d.Params = a.Params()
	}
	return d, ok
}

// searchEncodes counts attempts to put a guardedSnapshot on the wire.
var searchEncodes atomic.Int64

// guardedSnapshot is a search snapshot that refuses to be gob-encoded:
// a model frame must carry micro-clusters, never the search structure.
type guardedSnapshot struct{ core.Snapshot }

func (guardedSnapshot) GobEncode() ([]byte, error) {
	searchEncodes.Add(1)
	return nil, errors.New("search snapshot on the wire")
}

// settlingStream seeds many micro-clusters in the warm-up sample, then
// alternates between two fixed points, so steady-state batches touch two
// micro-clusters and the driver ships deltas.
func settlingStream(n int) []stream.Record {
	recs := make([]stream.Record, n)
	for i := range recs {
		v := vector.New(3)
		switch {
		case i < 100:
			v[0], v[1] = float64(i%10)*3, float64(i%7)*3
		case i%2 == 0:
			v[0], v[1] = 0.2, 0
		default:
			v[0], v[1] = 20.2, 20
		}
		recs[i] = stream.Record{Seq: uint64(i), Timestamp: vclock.Time(float64(i) / 100), Values: v}
	}
	return recs
}

// TestCodeclessAlgorithmModelFramesOverTCP runs an algorithm without a
// columnar codec over TCP with delta broadcast: full and delta model
// frames both take the gob fallback, carry micro-clusters and never the
// search snapshot, and the run ends byte-identical to the local executor.
func TestCodeclessAlgorithmModelFramesOverTCP(t *testing.T) {
	clustream.RegisterWireTypes()
	algos := core.NewAlgorithmRegistry()
	if err := algos.Register(codeclessName, newCodeclessAlgo); err != nil {
		t.Fatal(err)
	}
	algo, err := algos.New(core.Params{Name: codeclessName, Dim: 3, Ints: map[string]int{"maxMC": 30}, Floats: map[string]float64{"newRadius": 2}})
	if err != nil {
		t.Fatal(err)
	}
	run := func(exec mbsp.Executor) (core.RunStats, []byte) {
		t.Helper()
		eng, err := mbsp.NewEngine(exec)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		pl, err := core.NewPipeline(core.Config{Algorithm: algo, Engine: eng, BatchInterval: 1, InitRecords: 100})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := pl.RunContext(context.Background(), stream.NewSliceSource(settlingStream(1200)))
		if err != nil {
			t.Fatal(err)
		}
		state, err := pl.Model().EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		return stats, state
	}

	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, algos); err != nil {
		t.Fatal(err)
	}
	local, err := mbsp.NewLocalExecutor(mbsp.LocalConfig{Parallelism: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	_, want := run(local)

	log := logFrames(t)
	remote, _ := modelCluster(t, 2, algos)
	before := searchEncodes.Load()
	stats, got := run(remote)
	if !bytes.Equal(got, want) {
		t.Error("TCP model differs from the local executor's")
	}
	if n := searchEncodes.Load() - before; n != 0 {
		t.Errorf("search snapshot gob-encoded %d times", n)
	}
	if stats.DeltaBroadcasts == 0 || stats.Batches <= stats.DeltaBroadcasts {
		t.Fatalf("run shipped %d deltas over %d batches; want both kinds of frame", stats.DeltaBroadcasts, stats.Batches)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	var frames [][]byte
	for _, fs := range log.full {
		frames = append(frames, fs...)
	}
	fulls := len(frames)
	frames = append(frames, log.deltas...)
	if fulls == 0 || len(log.deltas) == 0 {
		t.Fatalf("encoded %d full and %d delta frames; want both", fulls, len(log.deltas))
	}
	for i, frame := range frames {
		// A model frame is two header bytes, then its body.
		var d core.SnapshotDelta
		if err := gob.NewDecoder(bytes.NewReader(frame[2:])).Decode(&d); err != nil {
			t.Fatalf("frame %d is not gob: %v", i, err)
		}
		if d.Params.Name != codeclessName {
			t.Errorf("frame %d names algorithm %q", i, d.Params.Name)
		}
		for _, mc := range d.Upserts {
			if _, ok := mc.(*clustream.MC); !ok {
				t.Fatalf("frame %d carries a %T, want micro-clusters", i, mc)
			}
		}
	}
	t.Logf("%d full and %d delta frames through gob", fulls, len(log.deltas))
}
