package subscribe

import (
	"testing"

	"diststream/internal/core"
	"diststream/internal/vclock"
	"diststream/internal/wire"
)

// FuzzDSUBFrames feeds arbitrary bytes to the two DSUB decoders a socket
// reaches: the hub's hello decoder and the client's model-frame decoder.
// Both must return an error or a value, never panic, and a model frame
// that decodes must apply — or fail to — against an empty replica
// without panicking.
func FuzzDSUBFrames(f *testing.F) {
	algos := testAlgos(f)
	f.Add(encodeHello(hello{}))
	f.Add(encodeHello(hello{hasCursor: true, version: 7, checksum: 0xfeed}))
	pub := versionPublished(3)
	for _, name := range []string{pub.Params.Name, "no-codec"} {
		p := pub.Params
		p.Name = name
		d := core.FullDelta(p, 3, pub.MCs)
		payload, err := encodeModelPayload(d.Version, d.Checksum, 2, vclock.Time(3), d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload[1:]) // decodeModelPayload starts after the kind byte
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeHello(data)
		frame, err := decodeModelPayload(wire.NewDec(data))
		if err != nil {
			return
		}
		algo, err := algos.New(frame.delta.Params)
		if err != nil {
			return
		}
		_, _ = core.ApplySnapshotDelta(algo, nil, frame.delta)
	})
}
