// Package simple provides a minimal reference implementation of the
// DistStream Algorithm API: decaying-centroid micro-clusters with a fixed
// absorb radius. It exists to document the four developer APIs (paper
// §VI) with the least algorithmic noise, and serves as the baseline for
// tests and the custom-algorithm example. For real stream clustering use
// clustream, denstream, dstream, or clustree.
package simple

import (
	"encoding/gob"
	"fmt"
	"math"

	"diststream/internal/core"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
	"diststream/internal/wire"
)

// Name is the registry name of this algorithm.
const Name = "simple"

// MC is the micro-cluster: a decayed weighted sum with a decayed weight.
// Every field is exported so micro-clusters travel over gob.
type MC struct {
	Id      uint64
	Sum     vector.Vector // decayed weighted coordinate sum
	W       float64       // decayed record mass
	Created vclock.Time
	Updated vclock.Time
	// Log, when update tracking is enabled, records absorbed sequence
	// numbers in processing order (tests use it to verify ordering).
	Log []uint64
}

var _ core.MicroCluster = (*MC)(nil)

// ID implements core.MicroCluster.
func (m *MC) ID() uint64 { return m.Id }

// SetID implements core.MicroCluster.
func (m *MC) SetID(id uint64) { m.Id = id }

// Weight implements core.MicroCluster.
func (m *MC) Weight() float64 { return m.W }

// CreatedAt implements core.MicroCluster.
func (m *MC) CreatedAt() vclock.Time { return m.Created }

// LastUpdated implements core.MicroCluster.
func (m *MC) LastUpdated() vclock.Time { return m.Updated }

// Center implements core.MicroCluster.
func (m *MC) Center() vector.Vector {
	if m.W == 0 {
		return m.Sum.Clone()
	}
	return m.Sum.Clone().Scale(1 / m.W)
}

// Clone implements core.MicroCluster.
func (m *MC) Clone() core.MicroCluster {
	out := *m
	out.Sum = m.Sum.Clone()
	out.Log = append([]uint64(nil), m.Log...)
	return &out
}

// Config parameterizes the algorithm.
type Config struct {
	// Radius is the absorb boundary around a micro-cluster center.
	Radius float64
	// Beta > 1 is the decay base: increments fade as Beta^-dt.
	Beta float64
	// MinWeight deletes micro-clusters whose decayed weight falls below.
	MinWeight float64
	// TrackUpdates records absorbed sequence numbers on each MC.
	TrackUpdates bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Radius <= 0 {
		out.Radius = 2
	}
	if out.Beta <= 1 {
		out.Beta = 1.2
	}
	if out.MinWeight <= 0 {
		out.MinWeight = 0.05
	}
	return out
}

// Algorithm implements core.Algorithm.
type Algorithm struct {
	cfg Config
}

var _ core.Algorithm = (*Algorithm)(nil)

// New returns the algorithm with defaults applied.
func New(cfg Config) *Algorithm {
	return &Algorithm{cfg: cfg.withDefaults()}
}

// Register adds the factory to an algorithm registry.
func Register(reg *core.AlgorithmRegistry) error {
	return reg.Register(Name, func(p core.Params) (core.Algorithm, error) {
		return New(Config{
			Radius:       p.Float("radius", 0),
			Beta:         p.Float("beta", 0),
			MinWeight:    p.Float("minWeight", 0),
			TrackUpdates: p.Int("trackUpdates", 0) == 1,
		}), nil
	})
}

// RegisterWireTypes registers this algorithm's gob payloads.
func RegisterWireTypes() {
	gob.Register(&MC{})
	wire.RegisterMCCodec(Name, &MC{}, encMC, decMC)
}

// Name implements core.Algorithm.
func (a *Algorithm) Name() string { return Name }

// Params implements core.Algorithm.
func (a *Algorithm) Params() core.Params {
	track := 0
	if a.cfg.TrackUpdates {
		track = 1
	}
	return core.Params{
		Name: Name,
		Floats: map[string]float64{
			"radius":    a.cfg.Radius,
			"beta":      a.cfg.Beta,
			"minWeight": a.cfg.MinWeight,
		},
		Ints: map[string]int{"trackUpdates": track},
	}
}

// Init implements core.Algorithm: greedy leader clustering over the
// warm-up sample.
func (a *Algorithm) Init(records []stream.Record) ([]core.MicroCluster, error) {
	var out []core.MicroCluster
	for _, rec := range records {
		absorbed := false
		for _, mc := range out {
			if vector.Distance(rec.Values, mc.Center()) <= a.cfg.Radius {
				a.Update(mc, rec)
				absorbed = true
				break
			}
		}
		if !absorbed {
			out = append(out, a.Create(rec))
		}
	}
	return out, nil
}

// NewSnapshot implements core.Algorithm with a flat center index.
func (a *Algorithm) NewSnapshot(mcs []core.MicroCluster) core.Snapshot {
	return &Snapshot{MCs: mcs, Index: core.BuildFlatIndex(mcs), Radius: a.cfg.Radius}
}

// Update implements core.Algorithm: q' = λq + Δx with λ = Beta^-|dt|,
// dt the gap to the previously updated record. The absolute gap matches
// the §IV-C1 naive-update model (λ ≤ 1 always): out-of-order records
// under the unordered baseline decay newer content, so recent records
// lose the recency preference the order-aware mechanism preserves.
func (a *Algorithm) Update(mc core.MicroCluster, rec stream.Record) {
	m := mc.(*MC)
	dt := math.Abs(float64(rec.Timestamp - m.Updated))
	lambda := math.Pow(a.cfg.Beta, -dt)
	m.Sum.Scale(lambda).Add(rec.Values)
	m.W = m.W*lambda + 1
	m.Updated = rec.Timestamp
	if a.cfg.TrackUpdates {
		m.Log = append(m.Log, rec.Seq)
	}
}

// Create implements core.Algorithm.
func (a *Algorithm) Create(rec stream.Record) core.MicroCluster {
	m := &MC{
		Sum:     rec.Values.Clone(),
		W:       1,
		Created: rec.Timestamp,
		Updated: rec.Timestamp,
	}
	if a.cfg.TrackUpdates {
		m.Log = []uint64{rec.Seq}
	}
	return m
}

// AbsorbIntoNew implements core.Algorithm.
func (a *Algorithm) AbsorbIntoNew(mc core.MicroCluster, rec stream.Record) bool {
	return vector.Distance(rec.Values, mc.Center()) <= a.cfg.Radius
}

// GlobalUpdate implements core.Algorithm: replace updated micro-clusters,
// admit created ones, decay the untouched, and delete faded ones.
func (a *Algorithm) GlobalUpdate(model *core.Model, updates []core.Update, now vclock.Time) error {
	touched := make(map[uint64]bool, len(updates))
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
		default:
			return fmt.Errorf("simple: unknown update kind %d", u.Kind)
		}
		touched[u.MC.ID()] = true
	}
	// Periodic decay/prune sweep; batch calls always sweep, the
	// sequential runner sweeps once per sweepInterval of virtual time.
	if !sweepDue(model, now, len(updates)) {
		return nil
	}
	for _, mc := range model.List() {
		m := mc.(*MC)
		if !touched[m.Id] {
			if dt := float64(now - m.Updated); dt > 0 {
				lambda := math.Pow(a.cfg.Beta, -dt)
				m.Sum.Scale(lambda)
				m.W *= lambda
				// Advance the decay horizon so the next global update
				// does not decay the same interval again.
				m.Updated = now
			}
		}
		if m.W < a.cfg.MinWeight {
			model.Remove(m.Id)
		}
	}
	return nil
}

// sweepInterval is the virtual-time period of the maintenance sweep.
const sweepInterval = 1.0

// sweepDue reports whether the periodic sweep should run now, updating
// the model's bookkeeping when it does.
func sweepDue(model *core.Model, now vclock.Time, updates int) bool {
	last, ok := model.MetaFloat("simple.lastSweep")
	if updates <= 1 && ok && float64(now)-last < sweepInterval {
		return false
	}
	model.SetMetaFloat("simple.lastSweep", float64(now))
	return true
}

// Offline implements core.Algorithm: each micro-cluster becomes its own
// macro-cluster (this reference algorithm does not group).
func (a *Algorithm) Offline(model *core.Model) (*core.Clustering, error) {
	mcs := model.List()
	centers := make([]vector.Vector, len(mcs))
	labels := make([]int, len(mcs))
	macros := make([]core.MacroCluster, len(mcs))
	for i, mc := range mcs {
		centers[i] = mc.Center()
		labels[i] = i
		macros[i] = core.MacroCluster{
			Label:   i,
			Members: []uint64{mc.ID()},
			Center:  mc.Center(),
			Weight:  mc.Weight(),
		}
	}
	clustering := core.NewClustering(macros, centers, labels)
	clustering.SetNoiseCutoff(2 * a.cfg.Radius)
	return clustering, nil
}

// Snapshot is the search structure: a flat center index plus the fixed
// absorb radius.
type Snapshot struct {
	MCs    []core.MicroCluster
	Index  core.FlatIndex
	Radius float64
}

var _ core.Snapshot = (*Snapshot)(nil)

// Nearest implements core.Snapshot via the flat one-vs-many kernel. The
// kernel minimizes the exact squared distance; √ is strictly monotone,
// so the winner matches the previous per-MC Distance scan, and the
// absorb test compares √d against the radius exactly as before — without
// the per-comparison Center() clone the old scan paid.
func (s *Snapshot) Nearest(rec stream.Record) (uint64, bool, bool) {
	best, bestD := s.Index.Nearest(rec.Values)
	if best < 0 {
		return 0, false, false
	}
	return s.Index.IDs[best], math.Sqrt(bestD) <= s.Radius, true
}

// NearestAll implements core.BatchNearester: the blocked kernel plus the
// same global-radius test as Nearest. Bit-identical to the per-record
// path.
func (s *Snapshot) NearestAll(recs []stream.Record, ids []uint64, absorb, found []bool) ([]uint64, []bool, []bool) {
	ids, absorb, found = core.GrowNearestOut(len(recs), ids, absorb, found)
	nr := core.GetNearestRows()
	nr.Rows, nr.Dists = s.Index.NearestAll(recs, nr.Rows, nr.Dists)
	for i, row := range nr.Rows {
		if row < 0 {
			ids[i], absorb[i], found[i] = 0, false, false
			continue
		}
		ids[i] = s.Index.IDs[row]
		absorb[i] = math.Sqrt(nr.Dists[i]) <= s.Radius
		found[i] = true
	}
	nr.Release()
	return ids, absorb, found
}

// Get implements core.Snapshot in O(1) via the id → row map.
func (s *Snapshot) Get(id uint64) core.MicroCluster {
	if i, ok := s.Index.IndexOf(id); ok {
		return s.MCs[i]
	}
	return nil
}

// Len implements core.Snapshot.
func (s *Snapshot) Len() int { return len(s.MCs) }
