package clustream

import (
	"fmt"

	"diststream/internal/core"
	"diststream/internal/vclock"
	"diststream/internal/vector"
	"diststream/internal/wire"
)

// Delta broadcast support: CluStream keeps untouched micro-clusters
// bit-identical across batches (no global decay), so steady-state deltas
// carry only the handful of clusters the batch actually absorbed into.

// DiffState implements core.SnapshotDiffer.
func (a *Algorithm) DiffState(old, new []core.MicroCluster) (*core.SnapshotDelta, bool) {
	d, ok := core.DiffMCLists(old, new, mcEqual)
	if !ok {
		return nil, false
	}
	d.Params = a.Params()
	return d, true
}

// ApplyDelta implements core.SnapshotDiffer.
func (a *Algorithm) ApplyDelta(old []core.MicroCluster, d *core.SnapshotDelta) ([]core.MicroCluster, error) {
	for i, mc := range d.Upserts {
		if _, ok := mc.(*MC); !ok {
			return nil, fmt.Errorf("clustream: delta upsert %d is %T, want *MC", i, mc)
		}
	}
	return core.ApplyMCDelta(old, d)
}

// mcEqual is bit-exact equality over every MC field.
func mcEqual(a, b core.MicroCluster) bool {
	x, ok := a.(*MC)
	if !ok {
		return false
	}
	y, ok := b.(*MC)
	if !ok {
		return false
	}
	return x.Id == y.Id &&
		core.BitsEqual(x.CF1T, y.CF1T) &&
		core.BitsEqual(x.CF2T, y.CF2T) &&
		core.BitsEqual(x.N, y.N) &&
		core.BitsEqual(float64(x.Born), float64(y.Born)) &&
		core.BitsEqual(float64(x.Last), float64(y.Last)) &&
		core.VecBitsEqual(x.CF1X, y.CF1X) &&
		core.VecBitsEqual(x.CF2X, y.CF2X)
}

// encMC / decMC are the columnar wire codec for *MC.
func encMC(e *wire.Enc, mc core.MicroCluster) bool {
	m, ok := mc.(*MC)
	if !ok {
		return false
	}
	e.Uint(m.Id)
	e.F64(m.CF1T)
	e.F64(m.CF2T)
	e.F64(m.N)
	e.F64(float64(m.Born))
	e.F64(float64(m.Last))
	e.F64s(m.CF1X)
	e.F64s(m.CF2X)
	return true
}

func decMC(d *wire.Dec) core.MicroCluster {
	m := &MC{}
	m.Id = d.Uint()
	m.CF1T = d.F64()
	m.CF2T = d.F64()
	m.N = d.F64()
	m.Born = vclock.Time(d.F64())
	m.Last = vclock.Time(d.F64())
	m.CF1X = vector.Vector(d.F64s())
	m.CF2X = vector.Vector(d.F64s())
	return m
}
