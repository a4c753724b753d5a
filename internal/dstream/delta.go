package dstream

import (
	"fmt"
	"slices"

	"diststream/internal/core"
	"diststream/internal/vclock"
	"diststream/internal/vector"
	"diststream/internal/wire"
)

// Delta broadcast support. D-Stream decays every grid density in its
// global update, so DiffState's size guard reports ok=false on active
// streams and full snapshots keep flowing; the capability exists for
// uniformity and the idle corner.

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
			return nil, fmt.Errorf("dstream: delta upsert %d is %T, want *MC", i, mc)
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
		core.BitsEqual(x.D, y.D) &&
		core.BitsEqual(float64(x.Born), float64(y.Born)) &&
		core.BitsEqual(float64(x.Last), float64(y.Last)) &&
		slices.Equal(x.Cell, y.Cell) &&
		core.VecBitsEqual(x.CF1, y.CF1)
}

// encMC / decMC are the columnar wire codec for *MC.
func encMC(e *wire.Enc, mc core.MicroCluster) bool {
	m, ok := mc.(*MC)
	if !ok {
		return false
	}
	e.Uint(m.Id)
	e.F64(m.D)
	e.F64(float64(m.Born))
	e.F64(float64(m.Last))
	e.Ints(m.Cell)
	e.F64s(m.CF1)
	return true
}

func decMC(d *wire.Dec) core.MicroCluster {
	m := &MC{}
	m.Id = d.Uint()
	m.D = d.F64()
	m.Born = vclock.Time(d.F64())
	m.Last = vclock.Time(d.F64())
	m.Cell = d.Ints()
	m.CF1 = vector.Vector(d.F64s())
	return m
}
