package wire_test

import (
	"testing"

	"diststream/internal/clustream"
	"diststream/internal/core"
	"diststream/internal/wire"
)

// FuzzModelFrame feeds arbitrary bytes through the model-frame decoder —
// what a TCP worker and a subscriber read off their sockets — and applies
// whatever decodes against an empty base and against a real one. Every
// step must return an error or a value, never panic, and an apply that
// succeeds must land on the frame's checksum.
func FuzzModelFrame(f *testing.F) {
	algo := clustream.New(clustream.Config{Dim: 2, MaxMicroClusters: 16})
	base := []core.MicroCluster{clMC(1, 2, 0, 0), clMC(2, 3, 5, 5), clMC(3, 1, 9, -9)}
	next := []core.MicroCluster{base[0], clMC(2, 4, 5, 6), clMC(4, 1, -3, 3)}
	seeds := []*core.SnapshotDelta{
		core.FullDelta(algo.Params(), 4, base),
		// Gob body: no codec is registered under this name.
		core.FullDelta(core.Params{Name: "no-codec", Dim: 2}, 4, base),
	}
	if d, ok := algo.DiffState(base, next); ok {
		d.FromVersion, d.Version = 4, 5
		seeds = append(seeds, d)
	}
	for _, d := range seeds {
		frame, err := wire.EncodeModel(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 10, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := wire.DecodeModel(data)
		if err != nil {
			return
		}
		if d == nil {
			t.Fatal("DecodeModel returned a nil delta with a nil error")
		}
		for _, b := range [][]core.MicroCluster{nil, base} {
			m, err := core.ApplySnapshotDelta(algo, b, d)
			if err == nil && core.ChecksumMCs(m.MCs) != d.Checksum {
				t.Fatalf("applied list misses the frame's checksum %#x", d.Checksum)
			}
		}
	})
}
