package clustream

import (
	"fmt"

	"diststream/internal/core"
)

// EncodeState implements core.StateCodec: it serializes the full model
// for the checkpoint subsystem through gob, reusing the micro-cluster
// registrations of RegisterWireTypes.
func (a *Algorithm) EncodeState(m *core.Model) ([]byte, error) {
	RegisterWireTypes()
	return m.EncodeState()
}

// DecodeState implements core.StateCodec. It rejects state written by a
// different algorithm (wrong concrete micro-cluster type) and returns an
// error — never a panic — on corrupt input.
func (a *Algorithm) DecodeState(data []byte) (*core.Model, error) {
	RegisterWireTypes()
	m, err := core.DecodeModelState(data)
	if err != nil {
		return nil, err
	}
	for _, mc := range m.List() {
		if _, ok := mc.(*MC); !ok {
			return nil, fmt.Errorf("%s: checkpoint micro-cluster is %T, not a %s micro-cluster", Name, mc, Name)
		}
	}
	return m, nil
}

var _ core.StateCodec = (*Algorithm)(nil)
