// Package clustree implements the ClusTree algorithm (Kranen et al.,
// KAIS 2011) on the DistStream Algorithm API.
//
// ClusTree organizes micro-clusters (decayed cluster features) in a
// balanced tree for logarithmic closest-micro-cluster search — the
// property that gives it 1.1–1.3x higher assign throughput than the
// linear-scan algorithms in the paper's Fig. 10. Micro-clusters decay
// exponentially; the model keeps a budget of leaves, merging the closest
// pair when over budget; the offline phase runs weighted k-means over
// the leaf micro-clusters.
//
// Substitution note: the original ClusTree maintains its tree
// incrementally with hitchhiker insertions. On DistStream the model is
// re-broadcast every batch anyway, so this implementation bulk-loads the
// tree from the micro-cluster list at snapshot time (recursive k-means
// splitting). Search behaviour — greedy descent to the nearest leaf — is
// the same; see DESIGN.md.
package clustree

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"diststream/internal/core"
	"diststream/internal/nncache"
	"diststream/internal/offline"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
	"diststream/internal/wire"
)

// Name is the registry name of this algorithm.
const Name = "clustree"

// MC is a ClusTree leaf micro-cluster: a decayed CF triple.
type MC struct {
	Id   uint64
	CF1  vector.Vector
	CF2  vector.Vector
	W    float64
	Born vclock.Time
	Last vclock.Time
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

// Radius returns the weighted RMS deviation in Euclidean distance units
// (full-norm sqrt(Σ_d var_d)).
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

// Decay fades the CF from the last update to now.
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

// Absorb folds one record with decay-before-add using the absolute time
// gap (λ ≤ 1 always, the §IV-C1 naive-update model): out-of-order records
// under the unordered baseline decay newer content. See the DenStream
// counterpart for the full rationale.
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

// Merge folds other into m.
func (m *MC) Merge(other *MC) {
	m.CF1.Add(other.CF1)
	m.CF2.Add(other.CF2)
	m.W += other.W
	if other.Last > m.Last {
		m.Last = other.Last
	}
	if other.Born < m.Born {
		m.Born = other.Born
	}
}

// Config parameterizes ClusTree.
type Config struct {
	// Dim is the record dimensionality.
	Dim int
	// MaxLeaves is the micro-cluster budget. Default 100.
	MaxLeaves int
	// Fanout is the tree node capacity. Default 3 (the original
	// ClusTree's M).
	Fanout int
	// Lambda is the decay exponent in 2^(-λ·Δt). Default 0.25.
	Lambda float64
	// RadiusFactor scales the RMS deviation into the absorb boundary.
	// Default 2.
	RadiusFactor float64
	// NewRadius is the absorb boundary for singleton micro-clusters.
	// Default 1.
	NewRadius float64
	// NumMacro is k for the offline weighted k-means. Default 5.
	NumMacro int
	// Seed drives tree bulk-loading and offline k-means.
	Seed int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxLeaves <= 0 {
		out.MaxLeaves = 100
	}
	if out.Fanout < 2 {
		out.Fanout = 3
	}
	if out.Lambda <= 0 {
		out.Lambda = 0.25
	}
	if out.RadiusFactor <= 0 {
		out.RadiusFactor = 2
	}
	if out.NewRadius <= 0 {
		out.NewRadius = 1
	}
	if out.NumMacro <= 0 {
		out.NumMacro = 5
	}
	return out
}

// Algorithm implements core.Algorithm for ClusTree.
type Algorithm struct {
	cfg Config
}

var _ core.Algorithm = (*Algorithm)(nil)

// New returns a ClusTree instance with defaults applied.
func New(cfg Config) *Algorithm {
	return &Algorithm{cfg: cfg.withDefaults()}
}

// Register adds the ClusTree factory to an algorithm registry.
func Register(reg *core.AlgorithmRegistry) error {
	return reg.Register(Name, func(p core.Params) (core.Algorithm, error) {
		return New(Config{
			Dim:          p.Dim,
			MaxLeaves:    p.Int("maxLeaves", 0),
			Fanout:       p.Int("fanout", 0),
			Lambda:       p.Float("lambda", 0),
			RadiusFactor: p.Float("radiusFactor", 0),
			NewRadius:    p.Float("newRadius", 0),
			NumMacro:     p.Int("numMacro", 0),
			Seed:         int64(p.Int("seed", 0)),
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
			"maxLeaves": a.cfg.MaxLeaves,
			"fanout":    a.cfg.Fanout,
			"numMacro":  a.cfg.NumMacro,
			"seed":      int(a.cfg.Seed),
		},
		Floats: map[string]float64{
			"lambda":       a.cfg.Lambda,
			"radiusFactor": a.cfg.RadiusFactor,
			"newRadius":    a.cfg.NewRadius,
		},
	}
}

// Init implements core.Algorithm: greedy leader clustering, capped at the
// leaf budget.
func (a *Algorithm) Init(records []stream.Record) ([]core.MicroCluster, error) {
	if len(records) == 0 {
		return nil, errors.New("clustree: empty init sample")
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
		if best != nil && (bestD <= a.boundary(best) || len(mcs) >= a.cfg.MaxLeaves) {
			best.Absorb(rec, a.cfg.Lambda)
			continue
		}
		mcs = append(mcs, a.newMC(rec))
	}
	out := make([]core.MicroCluster, len(mcs))
	for i, mc := range mcs {
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

// boundary is the absorb radius: RadiusFactor times the RMS deviation,
// floored at NewRadius so that tightly packed micro-clusters (tiny
// deviation) still absorb their own neighborhood.
func (a *Algorithm) boundary(m *MC) float64 {
	b := a.cfg.NewRadius
	if m.W >= 2 {
		if r := a.cfg.RadiusFactor * m.Radius(); r > b {
			b = r
		}
	}
	return b
}

// NewSnapshot implements core.Algorithm: bulk-load the CF tree.
func (a *Algorithm) NewSnapshot(mcs []core.MicroCluster) core.Snapshot {
	snap := &Snapshot{
		MCs:          mcs,
		Centers:      make([]vector.Vector, len(mcs)),
		Boundaries:   make([]float64, len(mcs)),
		ByID:         make(map[uint64]int, len(mcs)),
		RadiusFactor: a.cfg.RadiusFactor,
	}
	for i, mc := range mcs {
		snap.Centers[i] = mc.Center()
		snap.Boundaries[i] = a.boundary(mc.(*MC))
		snap.ByID[mc.ID()] = i
	}
	idx := make([]int, len(mcs))
	for i := range idx {
		idx[i] = i
	}
	snap.Root = buildNode(snap.Centers, idx, a.cfg.Fanout, a.cfg.Seed)
	return snap
}

// Node is one tree node: either a leaf holding micro-cluster indices or
// an internal node with child entries summarized by their centroid.
type Node struct {
	// Leaf entries: indices into the snapshot's MCs.
	Items []int
	// LeafCenters row i is the center of micro-cluster Items[i], packed
	// contiguously so the leaf scan is one flat kernel call.
	LeafCenters vector.Matrix
	// Internal entries.
	Children []*Node
	// Pivots row i is the centroid summarizing Children[i].
	Pivots vector.Matrix
}

// newLeaf packs the centers of the given indices into a flat leaf.
func newLeaf(centers []vector.Vector, idx []int) *Node {
	n := &Node{Items: append([]int(nil), idx...)}
	if len(idx) > 0 {
		m := vector.NewMatrix(len(idx), len(centers[idx[0]]))
		for i, id := range idx {
			m.SetRow(i, centers[id])
		}
		n.LeafCenters = m
	}
	return n
}

// buildNode recursively bulk-loads a tree over the given point indices
// using k-means splits of arity fanout.
func buildNode(centers []vector.Vector, idx []int, fanout int, seed int64) *Node {
	if len(idx) == 0 {
		return &Node{}
	}
	if len(idx) <= fanout {
		return newLeaf(centers, idx)
	}
	pts := make([]vector.Vector, len(idx))
	for i, id := range idx {
		pts[i] = centers[id]
	}
	res, err := offline.KMeans(pts, offline.KMeansConfig{K: fanout, Seed: seed, MaxIterations: 8})
	if err != nil {
		// Degenerate split (should not happen with len > fanout > 0):
		// fall back to a flat leaf.
		return newLeaf(centers, idx)
	}
	groups := make([][]int, len(res.Centroids))
	for i, g := range res.Assignments {
		groups[g] = append(groups[g], idx[i])
	}
	node := &Node{}
	var pivots []vector.Vector
	for g, members := range groups {
		if len(members) == 0 {
			continue
		}
		if len(members) == len(idx) {
			// k-means failed to split (identical points): flat leaf.
			return newLeaf(centers, idx)
		}
		node.Children = append(node.Children, buildNode(centers, members, fanout, seed+int64(g)+1))
		pivots = append(pivots, res.Centroids[g])
	}
	if len(node.Children) == 1 {
		return node.Children[0]
	}
	m, err := vector.MatrixFromRows(pivots)
	if err != nil {
		return newLeaf(centers, idx)
	}
	node.Pivots = m
	return node
}

// Update implements core.Algorithm.
func (a *Algorithm) Update(mc core.MicroCluster, rec stream.Record) {
	mc.(*MC).Absorb(rec, a.cfg.Lambda)
}

// Create implements core.Algorithm.
func (a *Algorithm) Create(rec stream.Record) core.MicroCluster {
	return a.newMC(rec)
}

// AbsorbIntoNew implements core.Algorithm.
func (a *Algorithm) AbsorbIntoNew(mc core.MicroCluster, rec stream.Record) bool {
	m := mc.(*MC)
	return m.DistanceTo(rec.Values) <= a.boundary(m)
}

// GlobalUpdate implements core.Algorithm: apply updates in order, merge
// the closest pairs while over the leaf budget, then decay untouched
// leaves and drop faded ones. As in CluStream, budget merges run after
// all updates are applied so that no micro-cluster with a pending update
// is merged (mass safety) and the closest-pair cache stays incremental.
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
			return fmt.Errorf("clustree: unknown update kind %d", u.Kind)
		}
		touched[u.MC.ID()] = true
	}
	if err := a.enforceBudget(model); err != nil {
		return err
	}
	// Periodic decay/prune sweep; batch calls always sweep, the
	// sequential runner sweeps once per sweepInterval of virtual time.
	if !sweepDue(model, now, len(updates)) {
		return nil
	}
	const minWeight = 0.05
	for _, mc := range model.List() {
		m := mc.(*MC)
		if !touched[m.Id] {
			m.Decay(now, a.cfg.Lambda)
		}
		if m.W < minWeight {
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
	last, ok := model.MetaFloat("clustree.lastSweep")
	if updates <= 1 && ok && float64(now)-last < sweepInterval {
		return false
	}
	model.SetMetaFloat("clustree.lastSweep", float64(now))
	return true
}

// enforceBudget merges closest pairs until the leaf budget holds, using
// an incrementally maintained nearest-neighbor cache built only when the
// budget is actually exceeded.
func (a *Algorithm) enforceBudget(model *core.Model) error {
	if model.Len() <= a.cfg.MaxLeaves {
		return nil
	}
	cache := nncache.New()
	for _, mc := range model.List() {
		cache.Put(mc.ID(), mc.Center())
	}
	for model.Len() > a.cfg.MaxLeaves {
		i, j, ok := cache.ClosestPair(nil)
		if !ok {
			return errors.New("clustree: budget exceeded but nothing to merge")
		}
		dst := model.Get(i).(*MC)
		dst.Merge(model.Get(j).(*MC))
		model.Remove(j)
		cache.Remove(j)
		cache.Put(dst.Id, dst.Center())
	}
	return nil
}

// Offline implements core.Algorithm: weighted k-means over leaf
// micro-clusters.
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
		return nil, fmt.Errorf("clustree: offline k-means: %w", err)
	}
	k := len(res.Centroids)
	macros := make([]core.MacroCluster, k)
	for i := range macros {
		macros[i].Label = i
	}
	labels := make([]int, len(mcs))
	for i, mc := range mcs {
		g := res.Assignments[i]
		labels[i] = g
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
	clustering := core.NewClustering(macros, centers, labels)
	var rsum, wsum float64
	for _, mc := range mcs {
		m := mc.(*MC)
		rsum += m.W * m.Radius()
		wsum += m.W
	}
	cutoff := 2 * a.cfg.NewRadius
	if wsum > 0 {
		if b := 2 * a.cfg.RadiusFactor * rsum / wsum; b > cutoff {
			cutoff = b
		}
	}
	clustering.SetNoiseCutoff(cutoff)
	return clustering, nil
}

// Snapshot is ClusTree's tree-search structure.
type Snapshot struct {
	MCs          []core.MicroCluster
	Centers      []vector.Vector
	Boundaries   []float64
	ByID         map[uint64]int
	Root         *Node
	RadiusFactor float64
}

var _ core.Snapshot = (*Snapshot)(nil)

// beamWidth bounds how many subtrees the descent keeps per level. Pure
// greedy descent (beam 1) mis-routes badly in high dimensions — almost
// every record would land at a leaf far from its true nearest
// micro-cluster and be mislabeled an outlier. A small beam restores
// accuracy while keeping the search sublinear, matching the paper's
// observation that tree search buys a modest 1.1-1.3x over linear scan.
const beamWidth = 4

// Nearest implements core.Snapshot: beam descent to the closest leaves.
// The frontier is kept in fixed-size stack arrays (beamWidth nodes, each
// expanding to at most its fanout children), so the per-record search
// does not allocate.
func (s *Snapshot) Nearest(rec stream.Record) (uint64, bool, bool) {
	if len(s.MCs) == 0 || s.Root == nil {
		return 0, false, false
	}
	var frontier [beamWidth]*Node
	frontier[0] = s.Root
	frontierLen := 1
	bestIdx, bestD := -1, math.Inf(1)
	for frontierLen > 0 {
		// Top-beamWidth children across the frontier by pivot distance.
		var nextNode [beamWidth]*Node
		var nextDist [beamWidth]float64
		nextLen := 0
		for f := 0; f < frontierLen; f++ {
			node := frontier[f]
			if len(node.Children) == 0 {
				// Leaf visit: one flat kernel call over the packed leaf
				// centers, seeded with the running best so losing rows
				// are abandoned early. The threaded bound makes the
				// multi-leaf sequence reproduce one continuous scalar
				// scan over the visited items.
				if li, d := vector.ArgminBelowBound(rec.Values, node.LeafCenters, bestD); li >= 0 {
					bestIdx, bestD = node.Items[li], d
				}
				continue
			}
			for i := 0; i < node.Pivots.Rows; i++ {
				d := vector.SquaredDistance(rec.Values, node.Pivots.Row(i))
				// Insertion into the running top-k.
				if nextLen < beamWidth {
					j := nextLen
					for j > 0 && nextDist[j-1] > d {
						nextDist[j], nextNode[j] = nextDist[j-1], nextNode[j-1]
						j--
					}
					nextDist[j], nextNode[j] = d, node.Children[i]
					nextLen++
					continue
				}
				if d >= nextDist[beamWidth-1] {
					continue
				}
				j := beamWidth - 1
				for j > 0 && nextDist[j-1] > d {
					nextDist[j], nextNode[j] = nextDist[j-1], nextNode[j-1]
					j--
				}
				nextDist[j], nextNode[j] = d, node.Children[i]
			}
		}
		frontier = nextNode
		frontierLen = nextLen
	}
	if bestIdx < 0 {
		return 0, false, false
	}
	return s.MCs[bestIdx].ID(), math.Sqrt(bestD) <= s.Boundaries[bestIdx], true
}

// NearestAll implements core.BatchNearester by running the beam descent
// per record. The descent path is data-dependent (each record prunes a
// different subtree), so there is no block of records sharing one
// centers matrix to tile — batching the leaf kernels would change which
// leaves the (approximate) beam visits and break bit-identity with
// Nearest. Adopting the capability still pays: the assign op unboxes and
// classifies the partition in one call instead of interface-dispatching
// per record.
func (s *Snapshot) NearestAll(recs []stream.Record, ids []uint64, absorb, found []bool) ([]uint64, []bool, []bool) {
	ids, absorb, found = core.GrowNearestOut(len(recs), ids, absorb, found)
	for i := range recs {
		ids[i], absorb[i], found[i] = s.Nearest(recs[i])
	}
	return ids, absorb, found
}

// Get implements core.Snapshot.
func (s *Snapshot) Get(id uint64) core.MicroCluster {
	i, ok := s.ByID[id]
	if !ok {
		return nil
	}
	return s.MCs[i]
}

// Len implements core.Snapshot.
func (s *Snapshot) Len() int { return len(s.MCs) }
