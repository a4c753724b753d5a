package simple

import (
	"fmt"
	"slices"

	"diststream/internal/core"
	"diststream/internal/vclock"
	"diststream/internal/vector"
	"diststream/internal/wire"
)

// Delta broadcast support. The simple algorithm decays every
// micro-cluster in its global update, so DiffState's size guard reports
// ok=false on active streams and the executor keeps shipping full
// snapshots; the capability exists for uniformity and the idle corner.

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
			return nil, fmt.Errorf("simple: delta upsert %d is %T, want *MC", i, mc)
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
		core.BitsEqual(x.W, y.W) &&
		core.BitsEqual(float64(x.Created), float64(y.Created)) &&
		core.BitsEqual(float64(x.Updated), float64(y.Updated)) &&
		core.VecBitsEqual(x.Sum, y.Sum) &&
		slices.Equal(x.Log, y.Log)
}

// encMC / decMC are the columnar wire codec for *MC.
func encMC(e *wire.Enc, mc core.MicroCluster) bool {
	m, ok := mc.(*MC)
	if !ok {
		return false
	}
	e.Uint(m.Id)
	e.F64(m.W)
	e.F64(float64(m.Created))
	e.F64(float64(m.Updated))
	e.F64s(m.Sum)
	e.Uints(m.Log)
	return true
}

func decMC(d *wire.Dec) core.MicroCluster {
	m := &MC{}
	m.Id = d.Uint()
	m.W = d.F64()
	m.Created = vclock.Time(d.F64())
	m.Updated = vclock.Time(d.F64())
	m.Sum = vector.Vector(d.F64s())
	m.Log = d.Uints()
	return m
}
