package wire_test

import (
	"encoding/binary"
	"math"
	"testing"

	"diststream/internal/clustream"
	"diststream/internal/core"
	"diststream/internal/mbsp"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
	"diststream/internal/wire"
)

// fuzzCursor deals bytes from the fuzz input; it wraps around so every
// input length yields a fully formed partition.
type fuzzCursor struct {
	data []byte
	pos  int
}

func (c *fuzzCursor) byte() byte {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[c.pos%len(c.data)]
	c.pos++
	return b
}

func (c *fuzzCursor) u64() uint64 {
	var raw [8]byte
	for i := range raw {
		raw[i] = c.byte()
	}
	return binary.LittleEndian.Uint64(raw[:])
}

// f64 returns a float64 from raw fuzz bits: NaNs (with payloads),
// infinities, subnormals and -0 all arise naturally.
func (c *fuzzCursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *fuzzCursor) record(dim int) stream.Record {
	r := stream.Record{Seq: c.u64(), Timestamp: vclock.Time(c.f64()), Label: int(int8(c.byte()))}
	if dim > 0 {
		r.Values = make(vector.Vector, dim)
		for i := range r.Values {
			r.Values[i] = c.f64()
		}
	}
	return r
}

// partitionFromBytes deterministically builds one hot-shape partition
// from fuzz bytes: shape, size (including empty) and every field —
// especially the float bit patterns — come from the input.
func partitionFromBytes(data []byte) mbsp.Partition {
	c := &fuzzCursor{data: data}
	shape := c.byte() % 4
	n := int(c.byte() % 9) // 0..8 items; 0 exercises the empty-partition decline
	dim := int(c.byte() % 5)
	p := make(mbsp.Partition, 0, n)
	for i := 0; i < n; i++ {
		switch shape {
		case 0:
			p = append(p, c.record(dim))
		case 1:
			ki := mbsp.KeyedItem{Key: c.u64(), Item: c.record(dim)}
			if c.byte()%2 == 0 {
				p = append(p, ki)
			} else {
				p = append(p, &ki)
			}
		case 2:
			g := mbsp.Group{Key: c.u64()}
			for j := int(c.byte() % 4); j > 0; j-- {
				g.Items = append(g.Items, c.record(dim))
			}
			p = append(p, g)
		case 3:
			mc := &clustream.MC{
				Id: c.u64(), CF1T: c.f64(), CF2T: c.f64(), N: c.f64(),
				Born: vclock.Time(c.f64()), Last: vclock.Time(c.f64()),
			}
			if dim > 0 {
				mc.CF1X = make(vector.Vector, dim)
				mc.CF2X = make(vector.Vector, dim)
				for j := 0; j < dim; j++ {
					mc.CF1X[j], mc.CF2X[j] = c.f64(), c.f64()
				}
			}
			p = append(p, core.Update{
				Kind: core.UpdateKind(c.byte() % 3), MC: mc,
				Absorbed: int(c.byte()), OrderTime: vclock.Time(c.f64()), OrderSeq: c.u64(),
			})
		}
	}
	return p
}

// FuzzWireCodec holds the columnar codec to two properties:
//
//  1. Decoding arbitrary bytes never panics — it either errors or yields
//     a well-formed value.
//  2. Differentially against gob: any partition the codec accepts must
//     decode to exactly what a gob round trip of the same partition
//     yields (floats compared by bit pattern, so NaN payloads, ±Inf and
//     -0 must survive byte-for-byte).
func FuzzWireCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 2, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 8, 4, 0x7f, 0xf0, 0, 0, 0, 0, 0, 1}) // NaN-ish bits, keyed shape
	f.Add([]byte{2, 5, 3, 0xff, 0xf0, 0, 0, 0, 0, 0, 0}) // -Inf bits, group shape
	f.Add([]byte{3, 2, 2, 0x80, 0, 0, 0, 0, 0, 0, 0})    // -0 bits, update shape
	good, _ := wire.EncodePartition(mbsp.Partition{
		stream.Record{Seq: 1, Timestamp: 2, Values: vector.Vector{3, 4}},
	})
	f.Add(good)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: hostile frames error, never panic.
		if p, err := wire.DecodePartition(data); err == nil && p == nil {
			t.Error("DecodePartition returned nil partition with nil error")
		}
		_, _ = wire.DecodeModel(data)

		// Property 2: differential against gob.
		part := partitionFromBytes(data)
		cols, ok := wire.EncodePartition(part)
		if !ok {
			if len(part) > 0 && len(data) > 0 {
				// Everything partitionFromBytes builds is a hot shape the
				// codec must cover (uniform dims by construction).
				t.Errorf("EncodePartition declined a uniform %T partition of %d items", part[0], len(part))
			}
			return
		}
		dec, err := wire.DecodePartition(cols)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		ref := gobRoundTrip(t, part)
		if !bitEqual(dec, ref) {
			t.Fatalf("columnar decode diverges from gob round trip\n cols: %#v\n gob:  %#v", dec, ref)
		}
	})
}
