// Custom algorithm: the paper's claim is that any online-offline stream
// clustering algorithm fits DistStream's four developer APIs —
// micro-cluster representation, distance computation, local update, and
// global update (§VI). This example implements a tiny custom algorithm
// ("countsketch": fixed-radius counting spheres with hard expiry, no
// decay) directly against the core.Algorithm interface, registers it, and
// runs it through the same order-aware pipeline as the shipped
// algorithms.
//
//	go run ./examples/customalgo
package main

import (
	"fmt"
	"math"
	"os"

	"diststream"
	"diststream/internal/core"
	"diststream/internal/datagen"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
)

// sphereMC is the micro-cluster representation (API 1): a fixed center
// with a record count and a hard expiry time.
type sphereMC struct {
	Id      uint64
	Anchor  vector.Vector
	Count   float64
	Born    vclock.Time
	Touched vclock.Time
}

func (m *sphereMC) ID() uint64               { return m.Id }
func (m *sphereMC) SetID(id uint64)          { m.Id = id }
func (m *sphereMC) Center() vector.Vector    { return m.Anchor.Clone() }
func (m *sphereMC) Weight() float64          { return m.Count }
func (m *sphereMC) CreatedAt() vclock.Time   { return m.Born }
func (m *sphereMC) LastUpdated() vclock.Time { return m.Touched }
func (m *sphereMC) Clone() core.MicroCluster {
	out := *m
	out.Anchor = m.Anchor.Clone()
	return &out
}

// countSketch implements core.Algorithm.
type countSketch struct {
	radius float64
	ttl    float64 // seconds a sphere lives without updates
}

func (a *countSketch) Name() string { return "countsketch" }

func (a *countSketch) Params() core.Params {
	return core.Params{
		Name:   "countsketch",
		Floats: map[string]float64{"radius": a.radius, "ttl": a.ttl},
	}
}

// Init: one sphere per warm-up record that no earlier sphere covers.
func (a *countSketch) Init(records []stream.Record) ([]core.MicroCluster, error) {
	var out []core.MicroCluster
	for _, rec := range records {
		covered := false
		for _, mc := range out {
			if vector.Distance(rec.Values, mc.(*sphereMC).Anchor) <= a.radius {
				a.Update(mc, rec)
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, a.Create(rec))
		}
	}
	return out, nil
}

// NewSnapshot: distance computation (API 2) — nearest anchor scan.
func (a *countSketch) NewSnapshot(mcs []core.MicroCluster) core.Snapshot {
	return &sphereSnapshot{mcs: mcs, radius: a.radius}
}

// Update: the local update (API 3). The anchor is immutable; only the
// count and the freshness timestamp advance.
func (a *countSketch) Update(mc core.MicroCluster, rec stream.Record) {
	m := mc.(*sphereMC)
	m.Count++
	if rec.Timestamp > m.Touched {
		m.Touched = rec.Timestamp
	}
}

func (a *countSketch) Create(rec stream.Record) core.MicroCluster {
	return &sphereMC{
		Anchor:  rec.Values.Clone(),
		Count:   1,
		Born:    rec.Timestamp,
		Touched: rec.Timestamp,
	}
}

func (a *countSketch) AbsorbIntoNew(mc core.MicroCluster, rec stream.Record) bool {
	return vector.Distance(rec.Values, mc.(*sphereMC).Anchor) <= a.radius
}

// GlobalUpdate: the global update (API 4) — admit/replace in the order
// the pipeline provides, expire spheres idle longer than the TTL.
func (a *countSketch) GlobalUpdate(model *core.Model, updates []core.Update, now vclock.Time) error {
	for _, u := range updates {
		switch u.Kind {
		case core.KindUpdated:
			if model.Get(u.MC.ID()) == nil {
				model.Add(u.MC)
			} else if err := model.Replace(u.MC); err != nil {
				return err
			}
		case core.KindCreated:
			model.Add(u.MC)
		}
	}
	for _, mc := range model.List() {
		if float64(now-mc.LastUpdated()) > a.ttl {
			model.Remove(mc.ID())
		}
	}
	return nil
}

// Offline: every live sphere is its own macro-cluster.
func (a *countSketch) Offline(model *core.Model) (*core.Clustering, error) {
	mcs := model.List()
	centers := make([]vector.Vector, len(mcs))
	labels := make([]int, len(mcs))
	macros := make([]core.MacroCluster, len(mcs))
	for i, mc := range mcs {
		centers[i] = mc.Center()
		labels[i] = i
		macros[i] = core.MacroCluster{
			Label: i, Members: []uint64{mc.ID()},
			Center: mc.Center(), Weight: mc.Weight(),
		}
	}
	c := core.NewClustering(macros, centers, labels)
	c.SetNoiseCutoff(2 * a.radius)
	return c, nil
}

type sphereSnapshot struct {
	mcs    []core.MicroCluster
	radius float64
}

func (s *sphereSnapshot) Nearest(rec stream.Record) (uint64, bool, bool) {
	best, bestD := -1, math.Inf(1)
	for i, mc := range s.mcs {
		if d := vector.Distance(rec.Values, mc.(*sphereMC).Anchor); d < bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return 0, false, false
	}
	return s.mcs[best].ID(), bestD <= s.radius, true
}

func (s *sphereSnapshot) Get(id uint64) core.MicroCluster {
	for _, mc := range s.mcs {
		if mc.ID() == id {
			return mc
		}
	}
	return nil
}

func (s *sphereSnapshot) Len() int { return len(s.mcs) }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "customalgo:", err)
		os.Exit(1)
	}
}

func run() error {
	recs, err := datagen.Generate(datagen.Spec{
		Name:    "custom",
		Records: 10000,
		Dim:     4,
		Clusters: []datagen.ClusterSpec{
			{Center: vector.Vector{-5, -5, 0, 0}, Std: 0.4, BaseWeight: 0.6},
			{Center: vector.Vector{5, 5, 0, 0}, Std: 0.4, BaseWeight: 0.4},
		},
		Rate: 100,
		Seed: 3,
	})
	if err != nil {
		return err
	}

	sys, err := diststream.New(diststream.Options{Parallelism: 4})
	if err != nil {
		return err
	}
	defer sys.Close()

	// Register the factory: pipeline tasks reconstruct the algorithm from
	// its serialized Params, whether they run in-process or on remote
	// workers. (For TCP workers you would also gob-register the
	// micro-cluster type: models cross the wire as micro-clusters, and
	// each worker rebuilds the snapshot with NewSnapshot.)
	err = sys.RegisterAlgorithm("countsketch", func(p core.Params) (diststream.Algorithm, error) {
		return &countSketch{
			radius: p.Float("radius", 2),
			ttl:    p.Float("ttl", 30),
		}, nil
	})
	if err != nil {
		return err
	}
	algo := &countSketch{radius: 2, ttl: 30}
	pl, err := sys.NewPipeline(algo, diststream.PipelineOptions{
		BatchSeconds: 5,
		InitRecords:  200,
	})
	if err != nil {
		return err
	}
	stats, err := pl.Run(stream.NewSliceSource(recs))
	if err != nil {
		return err
	}
	clustering, err := pl.Offline()
	if err != nil {
		return err
	}
	fmt.Printf("custom algorithm %q: %d records, %d batches, %d spheres live\n",
		algo.Name(), stats.Records, stats.Batches, pl.Model().Len())
	for _, macro := range clustering.Macros {
		fmt.Printf("  sphere %d at (%+.1f, %+.1f) holds %.0f records\n",
			macro.Label, macro.Center[0], macro.Center[1], macro.Weight)
	}
	return nil
}
