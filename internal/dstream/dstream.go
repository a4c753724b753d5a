// Package dstream implements the D-Stream algorithm (Chen & Tu, KDD 2007)
// on the DistStream Algorithm API.
//
// D-Stream partitions the feature space into density grids; each grid is
// a micro-cluster whose density decays as Lambda^Δt. A record maps to
// exactly one grid (the "closest micro-cluster" search is a grid lookup —
// the reason the paper measures 1.1–1.3x higher assign throughput for
// D-Stream, Fig. 10). Sporadic grids (density below the sparse threshold)
// are removed by the global update; the offline phase groups adjacent
// dense grids into macro-clusters.
//
// Substitution note: real D-Stream grids the full feature space, which is
// untenable at 54 normalized dimensions (every record would land in its
// own cell). Like practical D-Stream implementations, we grid a prefix
// projection of GridDims dimensions (the synthetic datasets carry their
// separation in the leading dimensions) and keep full-dimensional sums
// inside each grid for centroid queries. See DESIGN.md.
package dstream

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"diststream/internal/core"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
	"diststream/internal/wire"
)

// Name is the registry name of this algorithm.
const Name = "dstream"

// MC is one density grid.
type MC struct {
	Id uint64
	// Cell holds the quantized grid coordinates over the projected
	// dimensions.
	Cell []int
	// D is the decayed density.
	D float64
	// CF1 is the decayed full-dimensional linear sum (for centroids).
	CF1  vector.Vector
	Born vclock.Time
	Last vclock.Time
}

var _ core.MicroCluster = (*MC)(nil)

// ID implements core.MicroCluster.
func (m *MC) ID() uint64 { return m.Id }

// SetID implements core.MicroCluster.
func (m *MC) SetID(id uint64) { m.Id = id }

// Weight implements core.MicroCluster.
func (m *MC) Weight() float64 { return m.D }

// CreatedAt implements core.MicroCluster.
func (m *MC) CreatedAt() vclock.Time { return m.Born }

// LastUpdated implements core.MicroCluster.
func (m *MC) LastUpdated() vclock.Time { return m.Last }

// Center implements core.MicroCluster.
func (m *MC) Center() vector.Vector {
	if m.D == 0 {
		return m.CF1.Clone()
	}
	return m.CF1.Clone().Scale(1 / m.D)
}

// Clone implements core.MicroCluster.
func (m *MC) Clone() core.MicroCluster {
	out := *m
	out.Cell = append([]int(nil), m.Cell...)
	out.CF1 = m.CF1.Clone()
	return &out
}

// Decay fades density from the last update to now.
func (m *MC) Decay(now vclock.Time, lambda float64) {
	dt := float64(now - m.Last)
	if dt <= 0 {
		return
	}
	f := math.Pow(lambda, dt)
	m.D *= f
	m.CF1.Scale(f)
	m.Last = now
}

// Absorb folds one record: D = lambda^|Δt| · D + 1. The absolute gap
// matches the naive update model of §IV-C1 (λ ≤ 1 always): out-of-order
// records under the unordered baseline decay newer content. See the
// DenStream counterpart for the full rationale.
func (m *MC) Absorb(rec stream.Record, lambda float64) {
	dt := math.Abs(float64(rec.Timestamp - m.Last))
	if dt != 0 {
		f := math.Pow(lambda, dt)
		m.D *= f
		m.CF1.Scale(f)
	}
	m.Last = rec.Timestamp
	m.D++
	m.CF1.Add(rec.Values)
}

// Config parameterizes D-Stream.
type Config struct {
	// Dim is the record dimensionality.
	Dim int
	// GridDims is the number of leading dimensions the grid projects
	// onto. Default min(Dim, 4).
	GridDims int
	// GridSize is the cell edge length. Default 1.
	GridSize float64
	// Lambda in (0,1) is the per-second density decay factor. Default
	// 0.998.
	Lambda float64
	// DenseThreshold Cm: grids at or above are dense. Default 3.
	DenseThreshold float64
	// SparseThreshold Cl: grids strictly below are sporadic and removed
	// at global update. Default 0.8.
	SparseThreshold float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.GridDims <= 0 {
		out.GridDims = 4
	}
	if out.Dim > 0 && out.GridDims > out.Dim {
		out.GridDims = out.Dim
	}
	if out.GridSize <= 0 {
		out.GridSize = 1
	}
	if out.Lambda <= 0 || out.Lambda >= 1 {
		out.Lambda = 0.998
	}
	if out.DenseThreshold <= 0 {
		out.DenseThreshold = 3
	}
	if out.SparseThreshold <= 0 {
		out.SparseThreshold = 0.8
	}
	return out
}

// Algorithm implements core.Algorithm for D-Stream.
type Algorithm struct {
	cfg Config
}

var _ core.Algorithm = (*Algorithm)(nil)

// New returns a D-Stream instance with defaults applied.
func New(cfg Config) *Algorithm {
	return &Algorithm{cfg: cfg.withDefaults()}
}

// Register adds the D-Stream factory to an algorithm registry.
func Register(reg *core.AlgorithmRegistry) error {
	return reg.Register(Name, func(p core.Params) (core.Algorithm, error) {
		return New(Config{
			Dim:             p.Dim,
			GridDims:        p.Int("gridDims", 0),
			GridSize:        p.Float("gridSize", 0),
			Lambda:          p.Float("lambda", 0),
			DenseThreshold:  p.Float("denseThreshold", 0),
			SparseThreshold: p.Float("sparseThreshold", 0),
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
		Ints: map[string]int{"gridDims": a.cfg.GridDims},
		Floats: map[string]float64{
			"gridSize":        a.cfg.GridSize,
			"lambda":          a.cfg.Lambda,
			"denseThreshold":  a.cfg.DenseThreshold,
			"sparseThreshold": a.cfg.SparseThreshold,
		},
	}
}

// CellOf quantizes a record's projected coordinates.
func (a *Algorithm) CellOf(v vector.Vector) []int {
	dims := a.cfg.GridDims
	if dims > len(v) {
		dims = len(v)
	}
	cell := make([]int, dims)
	for d := 0; d < dims; d++ {
		cell[d] = int(math.Floor(v[d] / a.cfg.GridSize))
	}
	return cell
}

// cellKey renders a cell as a map key.
func cellKey(cell []int) string {
	var b strings.Builder
	for i, c := range cell {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// Init implements core.Algorithm: grid the warm-up sample.
func (a *Algorithm) Init(records []stream.Record) ([]core.MicroCluster, error) {
	if len(records) == 0 {
		return nil, errors.New("dstream: empty init sample")
	}
	grids := map[string]*MC{}
	var order []string
	for _, rec := range records {
		key := cellKey(a.CellOf(rec.Values))
		mc, ok := grids[key]
		if !ok {
			mc = a.newMC(rec)
			grids[key] = mc
			order = append(order, key)
			continue
		}
		mc.Absorb(rec, a.cfg.Lambda)
	}
	out := make([]core.MicroCluster, len(order))
	for i, key := range order {
		out[i] = grids[key]
	}
	return out, nil
}

func (a *Algorithm) newMC(rec stream.Record) *MC {
	return &MC{
		Cell: a.CellOf(rec.Values),
		D:    1,
		CF1:  rec.Values.Clone(),
		Born: rec.Timestamp,
		Last: rec.Timestamp,
	}
}

// NewSnapshot implements core.Algorithm: a hash map from cell to grid.
func (a *Algorithm) NewSnapshot(mcs []core.MicroCluster) core.Snapshot {
	snap := &Snapshot{
		MCs:      mcs,
		GridDims: a.cfg.GridDims,
		GridSize: a.cfg.GridSize,
		ByCell:   make(map[string]int, len(mcs)),
		ByID:     make(map[uint64]int, len(mcs)),
	}
	for i, mc := range mcs {
		snap.ByCell[cellKey(mc.(*MC).Cell)] = i
		snap.ByID[mc.ID()] = i
	}
	return snap
}

// Update implements core.Algorithm.
func (a *Algorithm) Update(mc core.MicroCluster, rec stream.Record) {
	mc.(*MC).Absorb(rec, a.cfg.Lambda)
}

// Create implements core.Algorithm.
func (a *Algorithm) Create(rec stream.Record) core.MicroCluster {
	return a.newMC(rec)
}

// AbsorbIntoNew implements core.Algorithm: records share a new grid when
// they quantize to the same cell.
func (a *Algorithm) AbsorbIntoNew(mc core.MicroCluster, rec stream.Record) bool {
	cell := a.CellOf(rec.Values)
	existing := mc.(*MC).Cell
	if len(cell) != len(existing) {
		return false
	}
	for i := range cell {
		if cell[i] != existing[i] {
			return false
		}
	}
	return true
}

// GlobalUpdate implements core.Algorithm: apply updates in order (merging
// same-cell collisions), decay untouched grids, and remove sporadic
// grids.
func (a *Algorithm) GlobalUpdate(model *core.Model, updates []core.Update, now vclock.Time) error {
	// Live cell index for collision detection among created grids.
	liveByCell := make(map[string]uint64, model.Len())
	for _, mc := range model.List() {
		liveByCell[cellKey(mc.(*MC).Cell)] = mc.ID()
	}
	// Created grids must not merge into a grid whose KindUpdated is still
	// ahead in the order — the later Replace would wipe the merged mass.
	// Such collisions are deferred until all updates have been applied.
	pending := make(map[uint64]int, len(updates))
	for _, u := range updates {
		if u.Kind == core.KindUpdated {
			pending[u.MC.ID()]++
		}
	}
	touched := make(map[uint64]bool, len(updates))
	var deferred []*MC
	mergeInto := func(dstID uint64, m *MC) {
		dst := model.Get(dstID).(*MC)
		dst.D += m.D
		dst.CF1.Add(m.CF1)
		if m.Last > dst.Last {
			dst.Last = m.Last
		}
		touched[dstID] = true
	}
	for _, u := range updates {
		m, ok := u.MC.(*MC)
		if !ok {
			return fmt.Errorf("dstream: update carries %T", u.MC)
		}
		switch u.Kind {
		case core.KindUpdated:
			if pending[m.Id]--; pending[m.Id] <= 0 {
				delete(pending, m.Id)
			}
			if model.Get(m.Id) == nil {
				model.Add(m)
				liveByCell[cellKey(m.Cell)] = m.Id
			} else if err := model.Replace(m); err != nil {
				return err
			}
			touched[m.Id] = true
		case core.KindCreated:
			key := cellKey(m.Cell)
			if existingID, collision := liveByCell[key]; collision {
				if _, isPending := pending[existingID]; isPending {
					deferred = append(deferred, m)
					continue
				}
				// Two outlier groups (or an outlier group and a live
				// grid) map to the same cell: merge densities.
				mergeInto(existingID, m)
				continue
			}
			model.Add(m)
			liveByCell[key] = m.Id
			touched[m.Id] = true
		default:
			return fmt.Errorf("dstream: unknown update kind %d", u.Kind)
		}
	}
	for _, m := range deferred {
		key := cellKey(m.Cell)
		if existingID, collision := liveByCell[key]; collision {
			mergeInto(existingID, m)
			continue
		}
		model.Add(m)
		liveByCell[key] = m.Id
		touched[m.Id] = true
	}
	// Periodic sporadic-grid inspection (D-Stream's "gap" parameter):
	// sweeping every grid per one-record call would make the sequential
	// baseline quadratic; batch calls always sweep.
	if !sweepDue(model, now, len(updates)) {
		return nil
	}
	for _, mc := range model.List() {
		m := mc.(*MC)
		if !touched[m.Id] {
			m.Decay(now, a.cfg.Lambda)
		}
		if m.D < a.cfg.SparseThreshold {
			model.Remove(m.Id)
		}
	}
	return nil
}

// sweepInterval is the virtual-time period of the sporadic-grid sweep.
const sweepInterval = 1.0

// sweepDue reports whether the periodic sweep should run now, updating
// the model's bookkeeping when it does.
func sweepDue(model *core.Model, now vclock.Time, updates int) bool {
	last, ok := model.MetaFloat("dstream.lastSweep")
	if updates <= 1 && ok && float64(now)-last < sweepInterval {
		return false
	}
	model.SetMetaFloat("dstream.lastSweep", float64(now))
	return true
}

// Offline implements core.Algorithm: BFS over adjacent dense grids (cells
// differing by one step in exactly one projected dimension).
func (a *Algorithm) Offline(model *core.Model) (*core.Clustering, error) {
	var dense []*MC
	for _, mc := range model.List() {
		m := mc.(*MC)
		if m.D >= a.cfg.DenseThreshold {
			dense = append(dense, m)
		}
	}
	if len(dense) == 0 {
		return core.NewClustering(nil, nil, nil), nil
	}
	byCell := make(map[string]int, len(dense))
	for i, m := range dense {
		byCell[cellKey(m.Cell)] = i
	}
	labels := make([]int, len(dense))
	for i := range labels {
		labels[i] = -1
	}
	k := 0
	for i := range dense {
		if labels[i] >= 0 {
			continue
		}
		labels[i] = k
		queue := []int{i}
		for qi := 0; qi < len(queue); qi++ {
			cur := dense[queue[qi]]
			for _, ni := range neighbors(cur.Cell, byCell) {
				if labels[ni] < 0 {
					labels[ni] = k
					queue = append(queue, ni)
				}
			}
		}
		k++
	}
	macros := make([]core.MacroCluster, k)
	for i := range macros {
		macros[i].Label = i
	}
	centers := make([]vector.Vector, len(dense))
	for i, m := range dense {
		g := labels[i]
		centers[i] = m.Center()
		macros[g].Members = append(macros[g].Members, m.Id)
		macros[g].Weight += m.D
		if macros[g].Center == nil {
			macros[g].Center = vector.New(len(centers[i]))
		}
		macros[g].Center.AXPY(m.D, centers[i])
	}
	for g := range macros {
		if macros[g].Weight > 0 {
			macros[g].Center.Scale(1 / macros[g].Weight)
		}
	}
	clustering := core.NewClustering(macros, centers, labels)
	// Records farther than two cell diagonals (in the projected grid
	// space) from every dense grid's centroid are noise.
	clustering.SetNoiseCutoff(2 * a.cfg.GridSize * math.Sqrt(float64(a.cfg.GridDims)))
	return clustering, nil
}

// neighbors returns indices of dense grids adjacent to cell.
func neighbors(cell []int, byCell map[string]int) []int {
	var out []int
	probe := append([]int(nil), cell...)
	for d := range probe {
		for _, delta := range [2]int{-1, 1} {
			probe[d] = cell[d] + delta
			if i, ok := byCell[cellKey(probe)]; ok {
				out = append(out, i)
			}
		}
		probe[d] = cell[d]
	}
	return out
}

// Snapshot is D-Stream's grid-lookup search structure: O(1) per record.
type Snapshot struct {
	MCs      []core.MicroCluster
	GridDims int
	GridSize float64
	ByCell   map[string]int
	ByID     map[uint64]int
}

var _ core.Snapshot = (*Snapshot)(nil)

// Nearest implements core.Snapshot: the record's own cell is its
// micro-cluster; records in unoccupied cells are outliers.
func (s *Snapshot) Nearest(rec stream.Record) (uint64, bool, bool) {
	if len(s.MCs) == 0 {
		return 0, false, false
	}
	dims := s.GridDims
	if dims > len(rec.Values) {
		dims = len(rec.Values)
	}
	cell := make([]int, dims)
	for d := 0; d < dims; d++ {
		cell[d] = int(math.Floor(rec.Values[d] / s.GridSize))
	}
	i, ok := s.ByCell[cellKey(cell)]
	if !ok {
		return 0, false, true // occupied model, but this cell is new
	}
	return s.MCs[i].ID(), true, true
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
