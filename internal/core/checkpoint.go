package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"

	"diststream/internal/checkpoint"
	"diststream/internal/stream"
	"diststream/internal/vclock"
)

// StateCodec is implemented by algorithms whose model state can be
// durably checkpointed and restored. The four shipped algorithms (and
// "simple") all implement it by delegating to the model state codec
// below after registering their micro-cluster wire types; a custom
// algorithm that wants checkpoint/resume support does the same.
type StateCodec interface {
	// EncodeState serializes the full model (micro-clusters, id
	// allocator, virtual clock, algorithm metadata).
	EncodeState(m *Model) ([]byte, error)
	// DecodeState reconstructs a model from EncodeState output. It must
	// reject state encoded for a different algorithm and must return an
	// error — never panic — on corrupt input.
	DecodeState(data []byte) (*Model, error)
}

// CheckpointConfig enables durable checkpointing of a pipeline run.
// After every EveryNBatches-th batch's global update, the pipeline
// atomically persists a snapshot of the model, the virtual clock, the
// stream position and the adaptive-batch state to Dir; a new pipeline
// with the same configuration can continue the run bit-identically via
// Pipeline.ResumeFrom.
type CheckpointConfig struct {
	// Dir is the checkpoint directory. Required.
	Dir string
	// EveryNBatches is the checkpoint cadence in batches. Default 1.
	EveryNBatches int
	// Keep is how many checkpoints to retain; older ones are pruned
	// after each successful write. Default 3.
	Keep int
}

func (c *CheckpointConfig) withDefaults() (CheckpointConfig, error) {
	out := *c
	if out.Dir == "" {
		return out, errors.New("core: checkpoint config needs a Dir")
	}
	if out.EveryNBatches < 0 {
		return out, fmt.Errorf("core: checkpoint cadence %d must not be negative", out.EveryNBatches)
	}
	if out.EveryNBatches == 0 {
		out.EveryNBatches = 1
	}
	if out.Keep <= 0 {
		out.Keep = 3
	}
	return out, nil
}

// modelState is the gob envelope for a Model. Micro-clusters travel as
// interface values, so their concrete types must be gob-registered (the
// algorithm RegisterWireTypes functions do this; the same registrations
// carry gob-fallback task outputs and model frames).
type modelState struct {
	MCs  []MicroCluster
	Next uint64
	Now  vclock.Time
	Meta map[string]float64
}

// EncodeState serializes the model: live micro-clusters in admission
// order, the id allocator, the virtual clock and algorithm metadata.
// The caller must have registered the micro-cluster types with gob.
func (m *Model) EncodeState() ([]byte, error) {
	var buf bytes.Buffer
	st := modelState{MCs: m.mcs, Next: m.next, Now: m.now, Meta: m.meta}
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("core: encode model state: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeModelState reconstructs a model from EncodeState output,
// validating structural invariants (no nil or duplicate-id
// micro-clusters, id allocator ahead of every live id) so corrupt input
// yields an error rather than a model that misbehaves later.
func DecodeModelState(data []byte) (*Model, error) {
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: decode model state: %w", err)
	}
	m := &Model{
		mcs:   st.MCs,
		index: make(map[uint64]int, len(st.MCs)),
		next:  st.Next,
		now:   st.Now,
		meta:  st.Meta,
	}
	if m.next == 0 {
		m.next = 1
	}
	for i, mc := range st.MCs {
		if mc == nil {
			return nil, fmt.Errorf("core: decode model state: micro-cluster %d is nil", i)
		}
		id := mc.ID()
		if _, dup := m.index[id]; dup {
			return nil, fmt.Errorf("core: decode model state: duplicate micro-cluster id %d", id)
		}
		if id >= m.next {
			return nil, fmt.Errorf("core: decode model state: micro-cluster id %d not below allocator %d", id, m.next)
		}
		m.index[id] = i
	}
	return m, nil
}

// pipelineStateFormat versions the pipeline snapshot payload inside the
// checkpoint envelope.
const pipelineStateFormat = 1

// pipelineState is everything the driver needs to continue a run
// exactly where it stopped: the encoded model, the warm-up buffer, the
// accumulated statistics and the stream position (which carries the
// adaptive batch interval).
type pipelineState struct {
	Format      int
	Algorithm   string
	Params      Params
	Initialized bool
	InitBuf     []stream.Record
	Model       []byte
	Stats       RunStats
	Batcher     stream.BatcherState
	BatchesSeen int
}

// writeCheckpointState persists a pipeline snapshot built from state the
// batch loop captured when it scheduled the checkpoint tail. The model is
// encoded from p.model directly: the join discipline of RunContext keeps
// it immutable until the tail is awaited, so the snapshot is always a
// consistent batch boundary.
func (p *Pipeline) writeCheckpointState(stats RunStats, batcherState stream.BatcherState,
	batchesSeen int, initialized bool, initBuf []stream.Record) error {
	codec, ok := p.cfg.Algorithm.(StateCodec)
	if !ok { // NewPipeline validated this; defend anyway
		return fmt.Errorf("core: algorithm %q does not implement StateCodec", p.cfg.Algorithm.Name())
	}
	modelBytes, err := codec.EncodeState(p.model)
	if err != nil {
		return err
	}
	st := pipelineState{
		Format:      pipelineStateFormat,
		Algorithm:   p.cfg.Algorithm.Name(),
		Params:      p.cfg.Algorithm.Params(),
		Initialized: initialized,
		InitBuf:     initBuf,
		Model:       modelBytes,
		Stats:       stats,
		Batcher:     batcherState,
		BatchesSeen: batchesSeen,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return fmt.Errorf("core: encode checkpoint: %w", err)
	}
	if _, err := checkpoint.Write(p.cfg.Checkpoint.Dir, uint64(batchesSeen), buf.Bytes()); err != nil {
		return err
	}
	return checkpoint.Prune(p.cfg.Checkpoint.Dir, p.cfg.Checkpoint.Keep)
}

// ResumeFrom loads the newest valid checkpoint from dir into this
// pipeline. The pipeline must be freshly built with the same algorithm
// and parameters as the interrupted run (mismatches are rejected — a
// resumed run under different parameters would silently change
// semantics) and must not have processed any records yet.
//
// The next Run/RunContext call must receive a source that replays the
// original stream from the beginning; the pipeline skips the records the
// interrupted run already consumed and continues bit-identically to an
// uninterrupted run.
func (p *Pipeline) ResumeFrom(dir string) error {
	if p.batchesSeen > 0 || p.initialized || len(p.initBuf) > 0 || p.model.Len() > 0 {
		return errors.New("core: ResumeFrom on a pipeline that already processed records")
	}
	codec, ok := p.cfg.Algorithm.(StateCodec)
	if !ok {
		return fmt.Errorf("core: algorithm %q does not implement StateCodec; cannot resume", p.cfg.Algorithm.Name())
	}
	_, payload, path, err := checkpoint.LoadLatest(dir)
	if err != nil {
		return err
	}
	var st pipelineState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return fmt.Errorf("core: decode checkpoint %s: %w", path, err)
	}
	if st.Format != pipelineStateFormat {
		return fmt.Errorf("core: checkpoint %s has format %d, want %d", path, st.Format, pipelineStateFormat)
	}
	if st.Algorithm != p.cfg.Algorithm.Name() {
		return fmt.Errorf("core: checkpoint %s was written by algorithm %q, pipeline runs %q",
			path, st.Algorithm, p.cfg.Algorithm.Name())
	}
	if !reflect.DeepEqual(st.Params, p.cfg.Algorithm.Params()) {
		return fmt.Errorf("core: checkpoint %s was written with different algorithm parameters", path)
	}
	if st.Batcher.Interval <= 0 {
		return fmt.Errorf("core: checkpoint %s carries invalid batch interval %v", path, st.Batcher.Interval)
	}
	model, err := codec.DecodeState(st.Model)
	if err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	p.model = model
	p.stats = st.Stats
	p.initialized = st.Initialized
	p.initBuf = st.InitBuf
	p.batchesSeen = st.BatchesSeen
	p.wallBase = st.Stats.TotalWall
	rs := st.Batcher
	p.resume = &rs
	return nil
}

// applyResume positions a fresh source and batcher at the checkpointed
// stream offset: the already-processed prefix is replayed and discarded,
// then the batcher's window bookkeeping is restored.
func (p *Pipeline) applyResume(ctx context.Context, src stream.Source, batcher *stream.Batcher) error {
	st := p.resume
	for i := 0; i < st.Consumed; i++ {
		if i%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if _, err := src.Next(); err != nil {
			return fmt.Errorf("core: resume: source ended at record %d while replaying %d consumed records: %w",
				i, st.Consumed, err)
		}
	}
	if err := batcher.Restore(*st); err != nil {
		return err
	}
	p.resume = nil
	return nil
}
