// Package denstream implements the DenStream algorithm (Cao et al., SDM
// 2006) on the DistStream Algorithm API.
//
// Micro-clusters carry exponentially faded cluster features (Σwx², Σwx,
// Σw — paper §VI) where every contribution fades as 2^(-Lambda·Δt).
// DenStream keeps two kinds of micro-clusters: potential (weight ≥
// Beta·Mu) and outlier. Records are absorbed when the prospective radius
// stays within Epsilon; otherwise they seed new outlier micro-clusters.
// The global update decays untouched micro-clusters, promotes outlier
// micro-clusters whose weight crosses Beta·Mu, and prunes faded ones.
// The offline phase runs weighted DBSCAN over potential micro-clusters,
// finding arbitrarily shaped macro-clusters.
package denstream

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"diststream/internal/core"
	"diststream/internal/offline"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
	"diststream/internal/wire"
)

// Name is the registry name of this algorithm.
const Name = "denstream"

// MC is a DenStream micro-cluster with faded cluster features.
type MC struct {
	Id        uint64
	CF1       vector.Vector // faded linear sum Σ w_i x_i
	CF2       vector.Vector // faded squared sum Σ w_i x_i²
	W         float64       // faded weight Σ w_i
	Potential bool          // potential (true) vs outlier (false)
	Born      vclock.Time
	Last      vclock.Time
}

var _ core.MicroCluster = (*MC)(nil)

// ID implements core.MicroCluster.
func (m *MC) ID() uint64 { return m.Id }

// SetID implements core.MicroCluster.
func (m *MC) SetID(id uint64) { m.Id = id }

// Weight implements core.MicroCluster.
func (m *MC) Weight() float64 { return m.W }

// CreatedAt implements core.MicroCluster.
func (m *MC) CreatedAt() vclock.Time { return m.Born }

// LastUpdated implements core.MicroCluster.
func (m *MC) LastUpdated() vclock.Time { return m.Last }

// Center implements core.MicroCluster.
func (m *MC) Center() vector.Vector {
	if m.W == 0 {
		return m.CF1.Clone()
	}
	return m.CF1.Clone().Scale(1 / m.W)
}

// Clone implements core.MicroCluster.
func (m *MC) Clone() core.MicroCluster {
	out := *m
	out.CF1 = m.CF1.Clone()
	out.CF2 = m.CF2.Clone()
	return &out
}

// Radius returns the weighted RMS deviation in Euclidean distance units
// (full-norm sqrt(Σ_d var_d)), comparable against Epsilon.
func (m *MC) Radius() float64 {
	if m.W == 0 {
		return 0
	}
	var sum float64
	for d := range m.CF1 {
		mean := m.CF1[d] / m.W
		v := m.CF2[d]/m.W - mean*mean
		if v > 0 {
			sum += v
		}
	}
	return math.Sqrt(sum)
}

// DistanceTo returns the Euclidean distance from the micro-cluster's
// centroid to v without materializing the centroid (hot-path helper).
func (m *MC) DistanceTo(v vector.Vector) float64 {
	if m.W == 0 {
		return vector.Distance(m.CF1, v)
	}
	inv := 1 / m.W
	var sum float64
	for d := range m.CF1 {
		diff := m.CF1[d]*inv - v[d]
		sum += diff * diff
	}
	return math.Sqrt(sum)
}

// Decay fades the micro-cluster from its last update to now with factor
// 2^(-lambda·Δt) and advances the decay horizon.
func (m *MC) Decay(now vclock.Time, lambda float64) {
	dt := float64(now - m.Last)
	if dt <= 0 {
		return
	}
	f := math.Exp2(-lambda * dt)
	m.CF1.Scale(f)
	m.CF2.Scale(f)
	m.W *= f
	m.Last = now
}

// Absorb folds rec into the micro-cluster: q' = λq + Δx with
// λ = 2^(-Lambda·|Δt|), Δt the gap to the previously updated record.
// Using the absolute gap matches the paper's §IV-C1 model of the naive
// update (λ ≤ 1 always): when the unordered baseline presents an OLDER
// record after a newer one, the newer content gets decayed — the update
// "fails to favor recent records" and each record's impact depends on its
// processing position, not its arrival order. The order-aware pipeline
// and the sequential runner always present records in arrival order
// (Δt ≥ 0), where this is the standard fading update.
func (m *MC) Absorb(rec stream.Record, lambda float64) {
	dt := math.Abs(float64(rec.Timestamp - m.Last))
	if dt != 0 {
		f := math.Exp2(-lambda * dt)
		m.CF1.Scale(f)
		m.CF2.Scale(f)
		m.W *= f
	}
	m.Last = rec.Timestamp
	m.CF1.Add(rec.Values)
	m.CF2.AddSquared(rec.Values)
	m.W++
}

// ProspectiveRadius returns the radius the micro-cluster would have after
// absorbing rec (without mutating it) — DenStream's absorb test.
func (m *MC) ProspectiveRadius(rec stream.Record, lambda float64) float64 {
	probe := m.Clone().(*MC)
	probe.Absorb(rec, lambda)
	return probe.Radius()
}

// Config parameterizes DenStream.
type Config struct {
	// Dim is the record dimensionality.
	Dim int
	// Epsilon is the micro-cluster radius bound ε. Default 0.8.
	Epsilon float64
	// Mu is the core weight threshold µ (paper evaluation: µ = 10).
	// Default 10.
	Mu float64
	// Beta is the potential factor β in (0,1]: potential micro-clusters
	// need weight ≥ Beta·Mu. Default 0.25.
	Beta float64
	// Lambda is the fading exponent λ in 2^(-λ·Δt). The DistStream paper
	// sets the decay base to 2^0.25 ≈ 1.2, i.e. λ = 0.25. Default 0.25.
	Lambda float64
	// OfflineEpsFactor scales Epsilon into the offline DBSCAN eps.
	// Default 2.
	OfflineEpsFactor float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Epsilon <= 0 {
		out.Epsilon = 0.8
	}
	if out.Mu <= 0 {
		out.Mu = 10
	}
	if out.Beta <= 0 || out.Beta > 1 {
		out.Beta = 0.25
	}
	if out.Lambda <= 0 {
		out.Lambda = 0.25
	}
	if out.OfflineEpsFactor <= 0 {
		out.OfflineEpsFactor = 2
	}
	return out
}

// Algorithm implements core.Algorithm for DenStream.
type Algorithm struct {
	cfg Config
}

var _ core.Algorithm = (*Algorithm)(nil)

// New returns a DenStream instance with defaults applied.
func New(cfg Config) *Algorithm {
	return &Algorithm{cfg: cfg.withDefaults()}
}

// Register adds the DenStream factory to an algorithm registry.
func Register(reg *core.AlgorithmRegistry) error {
	return reg.Register(Name, func(p core.Params) (core.Algorithm, error) {
		return New(Config{
			Dim:              p.Dim,
			Epsilon:          p.Float("epsilon", 0),
			Mu:               p.Float("mu", 0),
			Beta:             p.Float("beta", 0),
			Lambda:           p.Float("lambda", 0),
			OfflineEpsFactor: p.Float("offlineEpsFactor", 0),
		}), nil
	})
}

// RegisterWireTypes registers gob payload types.
func RegisterWireTypes() {
	gob.Register(&MC{})
	wire.RegisterMCCodec(Name, &MC{}, encMC, decMC)
}

// Name implements core.Algorithm.
func (a *Algorithm) Name() string { return Name }

// Params implements core.Algorithm.
func (a *Algorithm) Params() core.Params {
	return core.Params{
		Name: Name,
		Dim:  a.cfg.Dim,
		Floats: map[string]float64{
			"epsilon":          a.cfg.Epsilon,
			"mu":               a.cfg.Mu,
			"beta":             a.cfg.Beta,
			"lambda":           a.cfg.Lambda,
			"offlineEpsFactor": a.cfg.OfflineEpsFactor,
		},
	}
}

// Init implements core.Algorithm: greedy ε-leader clustering over the
// warm-up sample; groups reaching Beta·Mu weight start as potential.
func (a *Algorithm) Init(records []stream.Record) ([]core.MicroCluster, error) {
	if len(records) == 0 {
		return nil, errors.New("denstream: empty init sample")
	}
	var mcs []*MC
	for _, rec := range records {
		var best *MC
		bestD := math.Inf(1)
		for _, mc := range mcs {
			if d := mc.DistanceTo(rec.Values); d < bestD {
				best, bestD = mc, d
			}
		}
		if best != nil && best.ProspectiveRadius(rec, a.cfg.Lambda) <= a.cfg.Epsilon {
			best.Absorb(rec, a.cfg.Lambda)
			continue
		}
		mcs = append(mcs, a.newMC(rec))
	}
	out := make([]core.MicroCluster, len(mcs))
	for i, mc := range mcs {
		mc.Potential = mc.W >= a.cfg.Beta*a.cfg.Mu
		out[i] = mc
	}
	return out, nil
}

func (a *Algorithm) newMC(rec stream.Record) *MC {
	return &MC{
		CF1:  rec.Values.Clone(),
		CF2:  vector.New(len(rec.Values)).AddSquared(rec.Values),
		W:    1,
		Born: rec.Timestamp,
		Last: rec.Timestamp,
	}
}

// NewSnapshot implements core.Algorithm.
func (a *Algorithm) NewSnapshot(mcs []core.MicroCluster) core.Snapshot {
	return &Snapshot{
		MCs:     mcs,
		Index:   core.BuildFlatIndex(mcs),
		Epsilon: a.cfg.Epsilon,
		Lambda:  a.cfg.Lambda,
	}
}

// Update implements core.Algorithm.
func (a *Algorithm) Update(mc core.MicroCluster, rec stream.Record) {
	mc.(*MC).Absorb(rec, a.cfg.Lambda)
}

// Create implements core.Algorithm: new outlier micro-cluster.
func (a *Algorithm) Create(rec stream.Record) core.MicroCluster {
	return a.newMC(rec)
}

// AbsorbIntoNew implements core.Algorithm: a fresh outlier micro-cluster
// absorbs when the prospective radius stays within ε.
func (a *Algorithm) AbsorbIntoNew(mc core.MicroCluster, rec stream.Record) bool {
	return mc.(*MC).ProspectiveRadius(rec, a.cfg.Lambda) <= a.cfg.Epsilon
}

// GlobalUpdate implements core.Algorithm: apply updates in order
// (replacing or admitting), then decay untouched micro-clusters to `now`,
// promote outliers crossing Beta·Mu, demote potentials that faded below,
// and delete micro-clusters below the outlier retention threshold.
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
			return fmt.Errorf("denstream: unknown update kind %d", u.Kind)
		}
		touched[u.MC.ID()] = true
	}
	// Periodic maintenance (DenStream's Tp check): decaying untouched
	// micro-clusters, promotion/demotion, and pruning sweep the whole
	// model, so the one-record-at-a-time runner only pays for it every
	// sweepInterval of virtual time. The mini-batch pipeline (many
	// updates per call) sweeps on every batch.
	if !sweepDue(model, now, len(updates)) {
		return nil
	}
	betaMu := a.cfg.Beta * a.cfg.Mu
	for _, mc := range model.List() {
		m := mc.(*MC)
		if !touched[m.Id] {
			m.Decay(now, a.cfg.Lambda)
		}
		switch {
		case !m.Potential && m.W >= betaMu:
			m.Potential = true
		case m.Potential && m.W < betaMu:
			m.Potential = false
		}
		if m.W < a.deleteThreshold() {
			model.Remove(m.Id)
		}
	}
	return nil
}

// sweepInterval is the virtual-time period of the maintenance sweep
// (DenStream's Tp); a sweep also always runs for multi-update (batch)
// calls.
const sweepInterval = 1.0

// sweepDue reports whether the periodic sweep should run now, updating
// the model's bookkeeping when it does.
func sweepDue(model *core.Model, now vclock.Time, updates int) bool {
	last, ok := model.MetaFloat("denstream.lastSweep")
	if updates <= 1 && ok && float64(now)-last < sweepInterval {
		return false
	}
	model.SetMetaFloat("denstream.lastSweep", float64(now))
	return true
}

// deleteThreshold is the weight below which a micro-cluster is dropped.
// DenStream's ξ threshold grows with the outlier's age; we use the
// simpler stationary bound: an outlier that cannot reach Beta·Mu·(1-2^-λ)
// even at full stream rate is unrecoverable. A fixed fraction of Beta·Mu
// keeps the behaviour while staying parameter-light.
func (a *Algorithm) deleteThreshold() float64 {
	return 0.1 * a.cfg.Beta * a.cfg.Mu
}

// Offline implements core.Algorithm: weighted DBSCAN over potential
// micro-cluster centers (the density-connected grouping of §II-A).
func (a *Algorithm) Offline(model *core.Model) (*core.Clustering, error) {
	var potentials []core.MicroCluster
	for _, mc := range model.List() {
		if mc.(*MC).Potential {
			potentials = append(potentials, mc)
		}
	}
	if len(potentials) == 0 {
		return core.NewClustering(nil, nil, nil), nil
	}
	centers := make([]vector.Vector, len(potentials))
	weights := make([]float64, len(potentials))
	for i, mc := range potentials {
		centers[i] = mc.Center()
		weights[i] = mc.Weight()
	}
	labels, err := offline.DBSCAN(centers, weights, offline.DBSCANConfig{
		Eps:       a.cfg.OfflineEpsFactor * a.cfg.Epsilon,
		MinPoints: a.cfg.Mu,
	})
	if err != nil {
		return nil, fmt.Errorf("denstream: offline dbscan: %w", err)
	}
	k := offline.NumClusters(labels)
	macros := make([]core.MacroCluster, k)
	for i := range macros {
		macros[i].Label = i
	}
	// Noise micro-clusters are excluded from the assignment surface.
	var keepCenters []vector.Vector
	var keepLabels []int
	for i, mc := range potentials {
		g := labels[i]
		if g < 0 {
			continue
		}
		keepCenters = append(keepCenters, centers[i])
		keepLabels = append(keepLabels, g)
		macros[g].Members = append(macros[g].Members, mc.ID())
		macros[g].Weight += weights[i]
		if macros[g].Center == nil {
			macros[g].Center = vector.New(len(centers[i]))
		}
		macros[g].Center.AXPY(weights[i], centers[i])
	}
	for g := range macros {
		if macros[g].Weight > 0 {
			macros[g].Center.Scale(1 / macros[g].Weight)
		}
	}
	clustering := core.NewClustering(macros, keepCenters, keepLabels)
	// Records beyond the offline DBSCAN reach of every potential
	// micro-cluster are noise — the online outlier decision, offline.
	clustering.SetNoiseCutoff(a.cfg.OfflineEpsFactor * a.cfg.Epsilon)
	return clustering, nil
}

// Snapshot is DenStream's search structure: a flat center index plus the
// absorb parameters.
type Snapshot struct {
	MCs     []core.MicroCluster
	Index   core.FlatIndex
	Epsilon float64
	Lambda  float64
}

var _ core.Snapshot = (*Snapshot)(nil)

// Nearest implements core.Snapshot via the flat one-vs-many kernel:
// nearest center, absorbable when the prospective radius stays within ε.
func (s *Snapshot) Nearest(rec stream.Record) (uint64, bool, bool) {
	best, _ := s.Index.Nearest(rec.Values)
	if best < 0 {
		return 0, false, false
	}
	mc := s.MCs[best].(*MC)
	return mc.Id, mc.ProspectiveRadius(rec, s.Lambda) <= s.Epsilon, true
}

// NearestAll implements core.BatchNearester: the blocked kernel picks
// each record's nearest micro-cluster, then the same per-record
// prospective-radius test as Nearest decides absorption. Bit-identical
// to the per-record path.
func (s *Snapshot) NearestAll(recs []stream.Record, ids []uint64, absorb, found []bool) ([]uint64, []bool, []bool) {
	ids, absorb, found = core.GrowNearestOut(len(recs), ids, absorb, found)
	nr := core.GetNearestRows()
	nr.Rows, nr.Dists = s.Index.NearestAll(recs, nr.Rows, nr.Dists)
	for i, row := range nr.Rows {
		if row < 0 {
			ids[i], absorb[i], found[i] = 0, false, false
			continue
		}
		mc := s.MCs[row].(*MC)
		ids[i] = mc.Id
		absorb[i] = mc.ProspectiveRadius(recs[i], s.Lambda) <= s.Epsilon
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
