package clustream

import (
	"bytes"
	"math/rand"
	"testing"

	"diststream/internal/core"
	"diststream/internal/vclock"
	"diststream/internal/vector"
)

// randMC builds a random micro-cluster whose temporal features put its
// relevance stamp near t, so Horizon-based deletions are controllable.
func randMC(r *rand.Rand, dim int, t float64) *MC {
	n := 1 + float64(r.Intn(5))
	cf1 := vector.New(dim)
	cf2 := vector.New(dim)
	for d := range cf1 {
		v := r.NormFloat64() * 3
		cf1[d] = v * n
		cf2[d] = v * v * n
	}
	return &MC{
		CF1X: cf1,
		CF2X: cf2,
		CF1T: t * n,
		CF2T: t * t * n,
		N:    n,
		Born: vclock.Time(t),
		Last: vclock.Time(t),
	}
}

// cloneModel deep-copies via the state codec (the same round trip
// checkpoints use), preserving the id allocator and meta.
func cloneModel(t *testing.T, a *Algorithm, m *core.Model) *core.Model {
	t.Helper()
	data, err := a.EncodeState(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := a.DecodeState(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func encodeModel(t *testing.T, a *Algorithm, m *core.Model) []byte {
	t.Helper()
	data, err := a.EncodeState(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// cloneUpdates deep-copies a batch so one run's in-place mutations
// (Merge during budget enforcement, Add assigning re-admission ids)
// cannot leak into the other run's input.
func cloneUpdates(updates []core.Update) []core.Update {
	out := make([]core.Update, len(updates))
	for i, u := range updates {
		u.MC = u.MC.Clone()
		out[i] = u
	}
	return out
}

// randUpdates builds a randomized batch against model: replacements of
// live ids (with duplicates), updates whose base was deleted
// (re-admission), and creations — in (OrderTime, OrderSeq) order, as the
// pipeline presents them after the order-aware sort.
func randUpdates(r *rand.Rand, model *core.Model, removed []uint64, dim int, n int, now float64) []core.Update {
	live := model.IDs()
	updates := make([]core.Update, 0, n)
	for i := 0; i < n; i++ {
		ts := now - 1 + float64(i)/float64(n)
		mc := randMC(r, dim, ts)
		u := core.Update{MC: mc, OrderTime: vclock.Time(ts), OrderSeq: uint64(i)}
		switch roll := r.Intn(10); {
		case roll < 5 && len(live) > 0: // replacement, duplicates likely
			mc.Id = live[r.Intn(len(live))]
			u.Kind = core.KindUpdated
		case roll < 7 && len(removed) > 0: // base deleted before the global update
			mc.Id = removed[r.Intn(len(removed))]
			u.Kind = core.KindUpdated
		default:
			u.Kind = core.KindCreated
		}
		updates = append(updates, u)
	}
	return updates
}

// TestShardedGlobalUpdateMatchesSerial is the fuzz-style differential
// battery: random models (with deleted ids), random batches, random
// shard counts and pool sizes — serial GlobalUpdate and
// GlobalUpdateSharded must produce byte-identical state, including the
// budget loop's deletions and merges.
func TestShardedGlobalUpdateMatchesSerial(t *testing.T) {
	const dim = 6
	for trial := 0; trial < 60; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		algo := New(Config{
			Dim: dim,
			// Small budget so most trials run deletions and merges.
			MaxMicroClusters: 8 + r.Intn(8),
			Horizon:          20 + 40*r.Float64(),
			MLast:            5,
		})
		base := core.NewModel()
		now := 100.0
		nBase := 5 + r.Intn(15)
		for i := 0; i < nBase; i++ {
			// A mix of stale stamps (Horizon deletions) and fresh ones
			// (forced merges).
			t0 := now - 2*r.Float64()
			if r.Intn(3) == 0 {
				t0 = now - algo.cfg.Horizon - 50*r.Float64()
			}
			base.Add(randMC(r, dim, t0))
		}
		var removed []uint64
		for _, id := range base.IDs() {
			if r.Intn(6) == 0 {
				base.Remove(id)
				removed = append(removed, id)
			}
		}
		base.SetNow(vclock.Time(now - 1))
		updates := randUpdates(r, base, removed, dim, 2+r.Intn(24), now)
		shards := 1 + r.Intn(9)
		pool := core.NewReducerPool(1 + r.Intn(4))

		serial := cloneModel(t, algo, base)
		if err := algo.GlobalUpdate(serial, cloneUpdates(updates), vclock.Time(now)); err != nil {
			t.Fatalf("trial %d: serial: %v", trial, err)
		}
		sharded := cloneModel(t, algo, base)
		run := core.NewShardedRun(shards, pool, nil)
		if err := algo.GlobalUpdateSharded(sharded, cloneUpdates(updates), vclock.Time(now), run); err != nil {
			t.Fatalf("trial %d: sharded: %v", trial, err)
		}
		if !bytes.Equal(encodeModel(t, algo, serial), encodeModel(t, algo, sharded)) {
			t.Fatalf("trial %d: sharded state diverged (shards=%d pool=%d updates=%d)",
				trial, shards, pool.Workers(), len(updates))
		}
	}
}

// TestShardedGlobalUpdateEmptyBatch covers the degenerate batch: no
// updates, budget not exceeded — both paths must leave the model
// untouched.
func TestShardedGlobalUpdateEmptyBatch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	algo := New(Config{Dim: 4, MaxMicroClusters: 10})
	base := core.NewModel()
	for i := 0; i < 5; i++ {
		base.Add(randMC(r, 4, 50))
	}
	before := encodeModel(t, algo, base)
	run := core.NewShardedRun(4, core.NewReducerPool(2), nil)
	if err := algo.GlobalUpdateSharded(base, nil, 60, run); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, encodeModel(t, algo, base)) {
		t.Fatal("empty sharded batch mutated the model")
	}
}

// TestShardedBudgetMergeChain forces a long merge chain (no deletions:
// all stamps fresh) through both paths. Merge chains are the adversarial
// case for the nearest-neighbor cache: every merge dirties entries and
// the next closest pair depends on the previous merge's exact result.
func TestShardedBudgetMergeChain(t *testing.T) {
	const dim = 4
	r := rand.New(rand.NewSource(99))
	algo := New(Config{Dim: dim, MaxMicroClusters: 6, Horizon: 1e9, MLast: 5})
	base := core.NewModel()
	now := 200.0
	for i := 0; i < 30; i++ {
		base.Add(randMC(r, dim, now-r.Float64()))
	}
	var updates []core.Update
	for i := 0; i < 10; i++ {
		updates = append(updates, core.Update{
			Kind: core.KindCreated, MC: randMC(r, dim, now-0.5),
			OrderTime: vclock.Time(now), OrderSeq: uint64(i),
		})
	}
	serial := cloneModel(t, algo, base)
	if err := algo.GlobalUpdate(serial, cloneUpdates(updates), vclock.Time(now)); err != nil {
		t.Fatal(err)
	}
	if serial.Len() != algo.cfg.MaxMicroClusters {
		t.Fatalf("budget not enforced: len=%d", serial.Len())
	}
	sharded := cloneModel(t, algo, base)
	run := core.NewShardedRun(5, core.NewReducerPool(3), nil)
	if err := algo.GlobalUpdateSharded(sharded, cloneUpdates(updates), vclock.Time(now), run); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeModel(t, algo, serial), encodeModel(t, algo, sharded)) {
		t.Fatal("merge-chain state diverged")
	}
}
