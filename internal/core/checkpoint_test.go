package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diststream/internal/checkpoint"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
)

// errKill simulates a driver crash: the OnBatch hook returns it after a
// chosen batch, aborting the run mid-stream the same way a killed
// process would (the last durable state is the latest checkpoint).
var errKill = errors.New("injected driver crash")

// toyPipeline builds a checkpoint-capable toy pipeline over a fresh
// local engine. killAfter > 0 makes the run fail after that many
// processed batches.
func toyPipeline(t *testing.T, dir string, every, killAfter int) *Pipeline {
	t.Helper()
	cfg := Config{
		Algorithm:     newToyAlgo(),
		Engine:        newToyEngine(t, 4),
		BatchInterval: 1,
		InitRecords:   50,
	}
	if dir != "" {
		cfg.Checkpoint = &CheckpointConfig{Dir: dir, EveryNBatches: every}
	}
	if killAfter > 0 {
		batches := 0
		cfg.OnBatch = func(stream.Batch, *Model) error {
			batches++
			if batches >= killAfter {
				return errKill
			}
			return nil
		}
	}
	pl, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func modelContents(t *testing.T, m *Model) []*toyMC {
	t.Helper()
	out := make([]*toyMC, 0, m.Len())
	for _, mc := range m.List() {
		out = append(out, mc.(*toyMC))
	}
	return out
}

func TestCheckpointResumeCrashEquivalence(t *testing.T) {
	recs := twoBlobStream(1000, 100)

	// Reference: the undisturbed run.
	ref := toyPipeline(t, "", 0, 0)
	refStats, err := ref.Run(stream.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpoint every batch, crash after the third.
	dir := t.TempDir()
	killed := toyPipeline(t, dir, 1, 3)
	if _, err := killed.Run(stream.NewSliceSource(recs)); !errors.Is(err, errKill) {
		t.Fatalf("interrupted run: err = %v, want injected crash", err)
	}
	if entries, _ := checkpoint.List(dir); len(entries) == 0 {
		t.Fatal("no checkpoints written before the crash")
	}

	// Resume into a fresh pipeline and replay the stream from the start.
	resumed := toyPipeline(t, dir, 1, 0)
	if err := resumed.ResumeFrom(dir); err != nil {
		t.Fatal(err)
	}
	resStats, err := resumed.Run(stream.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical final model: same micro-clusters in the same
	// admission order, equal to the last float and log entry.
	want := modelContents(t, ref.Model())
	got := modelContents(t, resumed.Model())
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed model differs from uninterrupted run:\nwant %+v\ngot  %+v", want, got)
	}
	if ref.Model().Now() != resumed.Model().Now() {
		t.Errorf("virtual clock differs: %v vs %v", ref.Model().Now(), resumed.Model().Now())
	}

	// Accumulated statistics line up too (wall times excluded).
	type counts struct {
		Batches, Records, InitRecords, UpdatedMCs, CreatedMCs, OutlierRecords int
	}
	wc := counts{refStats.Batches, refStats.Records, refStats.InitRecords,
		refStats.UpdatedMCs, refStats.CreatedMCs, refStats.OutlierRecords}
	gc := counts{resStats.Batches, resStats.Records, resStats.InitRecords,
		resStats.UpdatedMCs, resStats.CreatedMCs, resStats.OutlierRecords}
	if wc != gc {
		t.Errorf("stats diverged: want %+v, got %+v", wc, gc)
	}
	if resStats.Checkpoints == 0 {
		t.Error("resumed run reported no checkpoints")
	}
}

func TestCheckpointCadenceAndPrune(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Algorithm:     newToyAlgo(),
		Engine:        newToyEngine(t, 2),
		BatchInterval: 1,
		InitRecords:   50,
		Checkpoint:    &CheckpointConfig{Dir: dir, EveryNBatches: 3, Keep: 2},
	}
	pl, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pl.Run(stream.NewSliceSource(twoBlobStream(1000, 100)))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := checkpoint.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || len(entries) > 2 {
		t.Fatalf("checkpoint files = %d, want 1..2 after pruning with Keep=2", len(entries))
	}
	for _, e := range entries {
		if e.Seq%3 != 0 {
			t.Errorf("checkpoint at batch %d violates EveryNBatches=3", e.Seq)
		}
	}
	if stats.Checkpoints < len(entries) {
		t.Errorf("Checkpoints = %d, fewer than files on disk (%d)", stats.Checkpoints, len(entries))
	}
}

// TestCheckpointTailErrorSurfacesOnce points the checkpoint directory
// beneath a regular file, so the first checkpoint that comes due fails
// inside the batch tail that runs beside the next batch's stages. The
// run must stop with that one error, wrapped once, and must not return
// while a tail is still running: the slow publish hook would still be
// in flight (or start later) if RunContext returned without joining it.
func TestCheckpointTailErrorSurfacesOnce(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var inflight, lateCalls atomic.Int32
	var returned atomic.Bool
	pl, err := NewPipeline(Config{
		Algorithm:     newToyAlgo(),
		Engine:        newToyEngine(t, 2),
		BatchInterval: 1,
		InitRecords:   50,
		Checkpoint:    &CheckpointConfig{Dir: filepath.Join(file, "ck"), EveryNBatches: 2},
		OnPublish: func(Published) {
			if returned.Load() {
				lateCalls.Add(1)
			}
			inflight.Add(1)
			time.Sleep(5 * time.Millisecond)
			inflight.Add(-1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	stats, err := pl.Run(stream.NewSliceSource(twoBlobStream(1000, 100)))
	returned.Store(true)
	if n := inflight.Load(); n != 0 {
		t.Errorf("%d publish calls still running after RunContext returned", n)
	}
	const want = "core: checkpoint after batch 2: "
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %v, want prefix %q", err, want)
	}
	if n := strings.Count(err.Error(), "checkpoint after batch"); n != 1 {
		t.Errorf("checkpoint error wrapped %d times: %v", n, err)
	}
	if !strings.Contains(err.Error(), "create dir") {
		t.Errorf("err = %v, want the checkpoint write's create-dir failure", err)
	}
	// The failure surfaces at the next batch's join, before its global
	// update: two batches completed, the third stopped.
	if stats.Batches > 3 {
		t.Errorf("run went on for %d batches after the failed checkpoint", stats.Batches)
	}
	// Goroutines that already delivered their result may take a moment to
	// exit; a leaked tail would not come back down.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before the run, %d after", before, after)
	}
	time.Sleep(20 * time.Millisecond)
	if n := lateCalls.Load(); n != 0 {
		t.Errorf("%d publish calls started after RunContext returned", n)
	}
}

func TestResumeRejectsMismatchesAndBadState(t *testing.T) {
	dir := t.TempDir()
	killed := toyPipeline(t, dir, 1, 2)
	if _, err := killed.Run(stream.NewSliceSource(twoBlobStream(1000, 100))); !errors.Is(err, errKill) {
		t.Fatal("setup run did not crash as arranged")
	}

	// Different algorithm parameters must be rejected.
	diff, err := NewPipeline(Config{
		Algorithm:     &toyAlgo{radius: 9.9, beta: 1.2, minWeight: 0.05},
		Engine:        newToyEngine(t, 2),
		BatchInterval: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := diff.ResumeFrom(dir); err == nil {
		t.Error("resume with different parameters accepted")
	}

	// A pipeline that already processed records must be rejected.
	used := toyPipeline(t, "", 0, 0)
	if _, err := used.Run(stream.NewSliceSource(twoBlobStream(200, 100))); err != nil {
		t.Fatal(err)
	}
	if err := used.ResumeFrom(dir); err == nil {
		t.Error("resume on a used pipeline accepted")
	}

	// Empty directory surfaces ErrNoCheckpoint.
	fresh := toyPipeline(t, "", 0, 0)
	if err := fresh.ResumeFrom(t.TempDir()); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Errorf("empty dir: err = %v, want ErrNoCheckpoint", err)
	}

	// A stream shorter than the checkpointed offset fails the resumed run
	// instead of silently continuing from the wrong position.
	short := toyPipeline(t, dir, 1, 0)
	if err := short.ResumeFrom(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := short.Run(stream.NewSliceSource(twoBlobStream(10, 100))); err == nil {
		t.Error("resume over a too-short stream succeeded")
	}
}

func TestModelStateCodecRejectsCorruptInput(t *testing.T) {
	algo := newToyAlgo()
	m := NewModel()
	m.Add(algo.Create(stream.Record{Seq: 1, Timestamp: 1, Values: vector.Vector{1, 2}}))
	m.Add(algo.Create(stream.Record{Seq: 2, Timestamp: 2, Values: vector.Vector{3, 4}}))
	m.SetNow(vclock.Time(2))
	data, err := algo.EncodeState(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := algo.DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(modelContents(t, m), modelContents(t, back)) || back.Now() != m.Now() {
		t.Error("round trip changed the model")
	}
	// Restored models must keep allocating fresh ids.
	id := back.Add(algo.Create(stream.Record{Seq: 3, Timestamp: 3, Values: vector.Vector{5, 6}}))
	if back.Get(id) == nil || len(back.IDs()) != 3 {
		t.Error("restored model cannot admit new micro-clusters")
	}
	for _, bad := range [][]byte{nil, {}, []byte("garbage"), data[:len(data)/2]} {
		if _, err := algo.DecodeState(bad); err == nil {
			t.Errorf("corrupt input %q decoded", bad)
		}
	}
}
