// Package clustream implements the CluStream algorithm (Aggarwal et al.,
// VLDB 2003) on the DistStream Algorithm API.
//
// Micro-clusters are cluster feature vectors extended with temporal
// statistics: (CF2x, CF1x, CF2t, CF1t, N) — the squared and linear sums
// of the records and of their timestamps (paper §VI: "we define
// micro-cluster representations as Σx², Σx, Σt², Σt for CluStream").
// CluStream keeps a fixed budget of q micro-clusters; when a new one is
// created, the algorithm either deletes the least-recent micro-cluster
// (relevance stamp below the horizon) or merges the two closest. The
// offline phase runs weighted k-means over micro-cluster centroids.
//
// CluStream's local update has no decay (λ = 1): increments are purely
// additive. Order sensitivity therefore enters through the irreversible
// global operations — deletion and merging — which is why the order-aware
// global update (§IV-C2) still matters for this algorithm.
package clustream

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
const Name = "clustream"

// MC is a CluStream micro-cluster.
type MC struct {
	Id   uint64
	CF1X vector.Vector // linear sum of records
	CF2X vector.Vector // squared sum of records
	CF1T float64       // linear sum of timestamps
	CF2T float64       // squared sum of timestamps
	N    float64       // record count
	Born vclock.Time
	Last vclock.Time
}

var _ core.MicroCluster = (*MC)(nil)

// ID implements core.MicroCluster.
func (m *MC) ID() uint64 { return m.Id }

// SetID implements core.MicroCluster.
func (m *MC) SetID(id uint64) { m.Id = id }

// Weight implements core.MicroCluster.
func (m *MC) Weight() float64 { return m.N }

// CreatedAt implements core.MicroCluster.
func (m *MC) CreatedAt() vclock.Time { return m.Born }

// LastUpdated implements core.MicroCluster.
func (m *MC) LastUpdated() vclock.Time { return m.Last }

// Center implements core.MicroCluster.
func (m *MC) Center() vector.Vector {
	if m.N == 0 {
		return m.CF1X.Clone()
	}
	return m.CF1X.Clone().Scale(1 / m.N)
}

// Clone implements core.MicroCluster.
func (m *MC) Clone() core.MicroCluster {
	out := *m
	out.CF1X = m.CF1X.Clone()
	out.CF2X = m.CF2X.Clone()
	return &out
}

// RMSDeviation returns the root-mean-square deviation of the records
// from the centroid in Euclidean distance units (the full-norm deviation
// sqrt(Σ_d var_d), NOT a per-dimension average): boundaries derived from
// it are compared against Euclidean distances, which grow with the
// square root of the dimensionality.
func (m *MC) RMSDeviation() float64 {
	if m.N == 0 {
		return 0
	}
	var sum float64
	for d := range m.CF1X {
		mean := m.CF1X[d] / m.N
		v := m.CF2X[d]/m.N - mean*mean
		if v > 0 {
			sum += v
		}
	}
	return math.Sqrt(sum)
}

// MeanTime returns the mean record timestamp μt.
func (m *MC) MeanTime() float64 {
	if m.N == 0 {
		return float64(m.Born)
	}
	return m.CF1T / m.N
}

// StdTime returns the timestamp standard deviation σt.
func (m *MC) StdTime() float64 {
	if m.N == 0 {
		return 0
	}
	mu := m.CF1T / m.N
	v := m.CF2T/m.N - mu*mu
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// RelevanceStamp approximates the arrival time of the m/(2N)-percentile
// record (the recency measure CluStream uses to pick deletion victims):
// μt + σt · Φ⁻¹(m/(2N)), clamped to μt when the micro-cluster holds fewer
// than 2m records.
func (m *MC) RelevanceStamp(mLast float64) float64 {
	if m.N < 2*mLast {
		return m.MeanTime()
	}
	p := 1 - mLast/(2*m.N) // percentile of the m-th most recent record
	return m.MeanTime() + m.StdTime()*normalQuantile(p)
}

// Absorb folds a record into the micro-cluster (pure addition, λ = 1).
func (m *MC) Absorb(rec stream.Record) {
	m.CF1X.Add(rec.Values)
	m.CF2X.AddSquared(rec.Values)
	ts := float64(rec.Timestamp)
	m.CF1T += ts
	m.CF2T += ts * ts
	m.N++
	if rec.Timestamp > m.Last {
		m.Last = rec.Timestamp
	}
}

// Merge adds other's statistics into m (the CF additivity property).
func (m *MC) Merge(other *MC) {
	m.CF1X.Add(other.CF1X)
	m.CF2X.Add(other.CF2X)
	m.CF1T += other.CF1T
	m.CF2T += other.CF2T
	m.N += other.N
	if other.Last > m.Last {
		m.Last = other.Last
	}
	if other.Born < m.Born {
		m.Born = other.Born
	}
}

// Config parameterizes CluStream.
type Config struct {
	// Dim is the record dimensionality.
	Dim int
	// MaxMicroClusters is the budget q (paper: 10x the real cluster
	// count). Default 100.
	MaxMicroClusters int
	// NumMacro is k for the offline weighted k-means. Default 5.
	NumMacro int
	// RadiusFactor scales the RMS deviation into the maximum boundary
	// (CluStream's t). Default 2.
	RadiusFactor float64
	// Horizon is the recency window δ in virtual seconds: a micro-cluster
	// whose relevance stamp falls before now-Horizon may be deleted.
	// Default 100.
	Horizon float64
	// MLast is the m parameter of the relevance stamp (number of most
	// recent records whose arrival time is approximated). Default 10.
	MLast float64
	// NewRadius is the absorb boundary used for singleton micro-clusters
	// (which have no deviation yet) and by outlier pre-merge. Default 1.
	NewRadius float64
	// Seed drives the k-means initialization.
	Seed int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxMicroClusters <= 0 {
		out.MaxMicroClusters = 100
	}
	if out.NumMacro <= 0 {
		out.NumMacro = 5
	}
	if out.RadiusFactor <= 0 {
		out.RadiusFactor = 2
	}
	if out.Horizon <= 0 {
		out.Horizon = 100
	}
	if out.MLast <= 0 {
		out.MLast = 10
	}
	if out.NewRadius <= 0 {
		out.NewRadius = 1
	}
	return out
}

// Algorithm implements core.Algorithm for CluStream.
type Algorithm struct {
	cfg Config
}

var _ core.Algorithm = (*Algorithm)(nil)

// New returns a CluStream instance with defaults applied.
func New(cfg Config) *Algorithm {
	return &Algorithm{cfg: cfg.withDefaults()}
}

// Register adds the CluStream factory to an algorithm registry.
func Register(reg *core.AlgorithmRegistry) error {
	return reg.Register(Name, func(p core.Params) (core.Algorithm, error) {
		return New(Config{
			Dim:              p.Dim,
			MaxMicroClusters: p.Int("maxMC", 0),
			NumMacro:         p.Int("numMacro", 0),
			RadiusFactor:     p.Float("radiusFactor", 0),
			Horizon:          p.Float("horizon", 0),
			MLast:            p.Float("mLast", 0),
			NewRadius:        p.Float("newRadius", 0),
			Seed:             int64(p.Int("seed", 0)),
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
		Ints: map[string]int{
			"maxMC":    a.cfg.MaxMicroClusters,
			"numMacro": a.cfg.NumMacro,
			"seed":     int(a.cfg.Seed),
		},
		Floats: map[string]float64{
			"radiusFactor": a.cfg.RadiusFactor,
			"horizon":      a.cfg.Horizon,
			"mLast":        a.cfg.MLast,
			"newRadius":    a.cfg.NewRadius,
		},
	}
}

// Init implements core.Algorithm: k-means over the warm-up sample into q
// groups, each becoming one micro-cluster (paper §II-B).
func (a *Algorithm) Init(records []stream.Record) ([]core.MicroCluster, error) {
	if len(records) == 0 {
		return nil, errors.New("clustream: empty init sample")
	}
	points := make([]vector.Vector, len(records))
	for i, rec := range records {
		points[i] = rec.Values
	}
	k := a.cfg.MaxMicroClusters
	if k > len(points) {
		k = len(points)
	}
	res, err := offline.KMeans(points, offline.KMeansConfig{K: k, Seed: a.cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("clustream: init k-means: %w", err)
	}
	mcs := make([]*MC, len(res.Centroids))
	for i, rec := range records {
		g := res.Assignments[i]
		if mcs[g] == nil {
			mcs[g] = a.newMC(rec)
			continue
		}
		mcs[g].Absorb(rec)
	}
	out := make([]core.MicroCluster, 0, len(mcs))
	for _, mc := range mcs {
		if mc != nil {
			out = append(out, mc)
		}
	}
	return out, nil
}

func (a *Algorithm) newMC(rec stream.Record) *MC {
	mc := &MC{
		CF1X: rec.Values.Clone(),
		CF2X: vector.New(len(rec.Values)).AddSquared(rec.Values),
		CF1T: float64(rec.Timestamp),
		CF2T: float64(rec.Timestamp) * float64(rec.Timestamp),
		N:    1,
		Born: rec.Timestamp,
		Last: rec.Timestamp,
	}
	return mc
}

// NewSnapshot implements core.Algorithm: build the flat center index
// once, then derive per-row boundaries.
func (a *Algorithm) NewSnapshot(mcs []core.MicroCluster) core.Snapshot {
	snap := &Snapshot{MCs: mcs, Index: core.BuildFlatIndex(mcs)}
	snap.Index.Boundaries = make([]float64, len(mcs))
	for i, mc := range mcs {
		m := mc.(*MC)
		if m.N >= 2 {
			snap.Index.Boundaries[i] = a.cfg.RadiusFactor * m.RMSDeviation()
			if snap.Index.Boundaries[i] == 0 {
				snap.Index.Boundaries[i] = a.cfg.NewRadius
			}
			continue
		}
		// Singleton: boundary is the distance to the closest other
		// micro-cluster (CluStream's rule).
		snap.Index.Boundaries[i] = a.singletonBoundary(&snap.Index, i)
	}
	return snap
}

func (a *Algorithm) singletonBoundary(idx *core.FlatIndex, i int) float64 {
	best := math.Inf(1)
	ci := idx.Row(i)
	for j := 0; j < idx.Len(); j++ {
		if j == i {
			continue
		}
		if d := vector.Distance(ci, idx.Row(j)); d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) {
		return a.cfg.NewRadius
	}
	return best
}

// Update implements core.Algorithm (λ = 1, pure addition).
func (a *Algorithm) Update(mc core.MicroCluster, rec stream.Record) {
	mc.(*MC).Absorb(rec)
}

// Create implements core.Algorithm.
func (a *Algorithm) Create(rec stream.Record) core.MicroCluster {
	return a.newMC(rec)
}

// AbsorbIntoNew implements core.Algorithm: fresh outlier micro-clusters
// absorb within the NewRadius boundary during pre-merge.
func (a *Algorithm) AbsorbIntoNew(mc core.MicroCluster, rec stream.Record) bool {
	m := mc.(*MC)
	boundary := a.cfg.NewRadius
	if m.N >= 2 {
		if b := a.cfg.RadiusFactor * m.RMSDeviation(); b > boundary {
			boundary = b
		}
	}
	return vector.Distance(rec.Values, m.Center()) <= boundary
}

// GlobalUpdate implements core.Algorithm: apply updates in the provided
// order, then restore the micro-cluster budget — deleting least-recent
// micro-clusters whose relevance stamp falls outside the horizon,
// otherwise merging the two closest. Deletion/merging runs after all
// updates are applied: operating on a micro-cluster that still has a
// pending update in the same batch would double-count its mass (the
// update clone carries the stale base) or wipe a merge partner's records.
// The irreversible operations still execute in a deterministic sequence
// among themselves, which is what §IV-C2 requires of them.
func (a *Algorithm) GlobalUpdate(model *core.Model, updates []core.Update, now vclock.Time) error {
	for _, u := range updates {
		switch u.Kind {
		case core.KindUpdated:
			if model.Get(u.MC.ID()) == nil {
				// Safety net: the base vanished (external model
				// manipulation); re-admit the update.
				model.Add(u.MC)
			} else if err := model.Replace(u.MC); err != nil {
				return err
			}
		case core.KindCreated:
			model.Add(u.MC)
		default:
			return fmt.Errorf("clustream: unknown update kind %d", u.Kind)
		}
	}
	return a.enforceBudget(model, now)
}

// budgetCache is the contract the budget-enforcement loop drives: the
// serial centerCache and the sharded-path shardCenterCache (sharded.go)
// both implement it with identical decision semantics, so the loop's
// deletion/merge sequence is the same object-for-object whichever cache
// backs it.
type budgetCache interface {
	leastRecent() (uint64, float64, bool)
	closestPair() (uint64, uint64, bool)
	put(m *MC)
	remove(id uint64)
}

// enforceBudget shrinks the model back to MaxMicroClusters. The
// closest-pair cache is built only when the budget is actually exceeded,
// keeping the common one-record-at-a-time call cheap.
func (a *Algorithm) enforceBudget(model *core.Model, now vclock.Time) error {
	if model.Len() <= a.cfg.MaxMicroClusters {
		return nil
	}
	return a.enforceBudgetWith(model, now, newCenterCache(model, a.cfg.MLast))
}

// enforceBudgetWith runs the deletion/merge loop against a prebuilt
// cache until the model fits the budget again.
func (a *Algorithm) enforceBudgetWith(model *core.Model, now vclock.Time, cache budgetCache) error {
	for model.Len() > a.cfg.MaxMicroClusters {
		if id, stamp, ok := cache.leastRecent(); ok && stamp < float64(now)-a.cfg.Horizon {
			model.Remove(id)
			cache.remove(id)
			continue
		}
		i, j, ok := cache.closestPair()
		if !ok {
			return errors.New("clustream: budget exceeded but no pair to merge")
		}
		dst := model.Get(i).(*MC)
		src := model.Get(j).(*MC)
		dst.Merge(src)
		model.Remove(j)
		cache.remove(j)
		cache.put(dst)
	}
	return nil
}

// centerCache maintains micro-cluster centroids and per-entry nearest
// neighbors across one global update, so repeated closest-pair queries
// cost O(n·d) amortized instead of O(n²·d) each.
type centerCache struct {
	ids     []uint64
	index   map[uint64]int
	centers []vector.Vector
	stamps  []float64 // cached relevance stamps for deletion victims
	nnDist  []float64 // squared distance to the nearest other entry
	nnID    []uint64
	dirty   []bool // entry's nearest neighbor needs recomputation
	mLast   float64
}

func newCenterCache(model *core.Model, mLast float64) *centerCache {
	mcs := model.List()
	c := &centerCache{index: make(map[uint64]int, len(mcs)), mLast: mLast}
	for _, mc := range mcs {
		c.appendEntry(mc.(*MC))
	}
	return c
}

func (c *centerCache) appendEntry(m *MC) {
	c.index[m.Id] = len(c.ids)
	c.ids = append(c.ids, m.Id)
	c.centers = append(c.centers, m.Center())
	c.stamps = append(c.stamps, m.RelevanceStamp(c.mLast))
	c.nnDist = append(c.nnDist, math.Inf(1))
	c.nnID = append(c.nnID, 0)
	c.dirty = append(c.dirty, true)
}

// leastRecent returns the entry with the smallest relevance stamp.
func (c *centerCache) leastRecent() (uint64, float64, bool) {
	best := -1
	for i := range c.ids {
		if best < 0 || c.stamps[i] < c.stamps[best] {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return c.ids[best], c.stamps[best], true
}

// put inserts or refreshes an entry and invalidates neighbors that
// pointed at it.
func (c *centerCache) put(m *MC) {
	if i, ok := c.index[m.Id]; ok {
		c.centers[i] = m.Center()
		c.stamps[i] = m.RelevanceStamp(c.mLast)
		c.dirty[i] = true
		c.invalidateReferencesTo(m.Id)
		return
	}
	c.appendEntry(m)
}

func (c *centerCache) remove(id uint64) {
	i, ok := c.index[id]
	if !ok {
		return
	}
	last := len(c.ids) - 1
	c.ids[i] = c.ids[last]
	c.centers[i] = c.centers[last]
	c.stamps[i] = c.stamps[last]
	c.nnDist[i] = c.nnDist[last]
	c.nnID[i] = c.nnID[last]
	c.dirty[i] = c.dirty[last]
	c.index[c.ids[i]] = i
	c.ids = c.ids[:last]
	c.centers = c.centers[:last]
	c.stamps = c.stamps[:last]
	c.nnDist = c.nnDist[:last]
	c.nnID = c.nnID[:last]
	c.dirty = c.dirty[:last]
	delete(c.index, id)
	c.invalidateReferencesTo(id)
}

func (c *centerCache) invalidateReferencesTo(id uint64) {
	for i := range c.ids {
		if c.nnID[i] == id {
			c.dirty[i] = true
		}
	}
}

func (c *centerCache) recompute(i int) {
	best := math.Inf(1)
	var bestID uint64
	for j := range c.ids {
		if j == i {
			continue
		}
		if d := vector.SquaredDistance(c.centers[i], c.centers[j]); d < best {
			best, bestID = d, c.ids[j]
		}
	}
	c.nnDist[i] = best
	c.nnID[i] = bestID
	c.dirty[i] = false
}

// closestPair returns the ids of the two closest micro-clusters, lazily
// recomputing stale nearest-neighbor entries.
func (c *centerCache) closestPair() (uint64, uint64, bool) {
	if len(c.ids) < 2 {
		return 0, 0, false
	}
	best := math.Inf(1)
	bi := -1
	for i := range c.ids {
		if c.dirty[i] {
			c.recompute(i)
		}
		if c.nnDist[i] < best {
			best = c.nnDist[i]
			bi = i
		}
	}
	if bi < 0 {
		return 0, 0, false
	}
	return c.ids[bi], c.nnID[bi], true
}

// Offline implements core.Algorithm: weighted k-means over micro-cluster
// centroids, weights = record counts.
func (a *Algorithm) Offline(model *core.Model) (*core.Clustering, error) {
	mcs := model.List()
	if len(mcs) == 0 {
		return core.NewClustering(nil, nil, nil), nil
	}
	centers := make([]vector.Vector, len(mcs))
	weights := make([]float64, len(mcs))
	for i, mc := range mcs {
		centers[i] = mc.Center()
		weights[i] = mc.Weight()
	}
	res, err := offline.WeightedKMeans(centers, weights, offline.KMeansConfig{
		K:    a.cfg.NumMacro,
		Seed: a.cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("clustream: offline k-means: %w", err)
	}
	clustering := buildClustering(mcs, centers, res.Assignments, len(res.Centroids))
	clustering.SetNoiseCutoff(a.assignCutoff(mcs))
	return clustering, nil
}

// assignCutoff bounds offline assignment at twice the typical online
// absorb boundary: records farther than this from every micro-cluster are
// reported as noise (missed), mirroring the online outlier decision.
func (a *Algorithm) assignCutoff(mcs []core.MicroCluster) float64 {
	var rsum, wsum float64
	for _, mc := range mcs {
		m := mc.(*MC)
		rsum += m.N * m.RMSDeviation()
		wsum += m.N
	}
	cutoff := 2 * a.cfg.NewRadius
	if wsum > 0 {
		if b := 2 * a.cfg.RadiusFactor * rsum / wsum; b > cutoff {
			cutoff = b
		}
	}
	return cutoff
}

// buildClustering assembles the core.Clustering from member assignments.
func buildClustering(mcs []core.MicroCluster, centers []vector.Vector, assignments []int, k int) *core.Clustering {
	macros := make([]core.MacroCluster, k)
	for i := range macros {
		macros[i].Label = i
	}
	labels := make([]int, len(mcs))
	for i, mc := range mcs {
		g := assignments[i]
		labels[i] = g
		macros[g].Members = append(macros[g].Members, mc.ID())
		macros[g].Weight += mc.Weight()
		if macros[g].Center == nil {
			macros[g].Center = vector.New(len(centers[i]))
		}
		macros[g].Center.AXPY(mc.Weight(), centers[i])
	}
	for g := range macros {
		if macros[g].Weight > 0 {
			macros[g].Center.Scale(1 / macros[g].Weight)
		}
	}
	return core.NewClustering(macros, centers, labels)
}

// Snapshot is CluStream's search structure: a flat center index with
// per-row absorb boundaries.
type Snapshot struct {
	MCs   []core.MicroCluster
	Index core.FlatIndex
}

var _ core.Snapshot = (*Snapshot)(nil)

// Nearest implements core.Snapshot via the flat one-vs-many kernel. The
// winning squared distance is exact (not the norm expansion), so the √d
// boundary comparison matches the scalar scan bit-for-bit.
func (s *Snapshot) Nearest(rec stream.Record) (uint64, bool, bool) {
	best, bestD := s.Index.Nearest(rec.Values)
	if best < 0 {
		return 0, false, false
	}
	return s.Index.IDs[best], math.Sqrt(bestD) <= s.Index.Boundaries[best], true
}

// NearestAll implements core.BatchNearester: one blocked many-vs-many
// kernel call per record block, then the same per-row boundary test as
// Nearest. Bit-identical to the per-record path.
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
		absorb[i] = math.Sqrt(nr.Dists[i]) <= s.Index.Boundaries[row]
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

// normalQuantile is the inverse standard normal CDF (Acklam's rational
// approximation, |relative error| < 1.15e-9), used by the relevance
// stamp's percentile estimate.
func normalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
