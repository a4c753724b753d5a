package wire_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"diststream/internal/clustream"
	"diststream/internal/core"
	"diststream/internal/mbsp"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
	"diststream/internal/wire"
)

func init() {
	// The same registrations the rpcexec driver/worker perform.
	gob.Register(mbsp.KeyedItem{})
	gob.Register(mbsp.Group{})
	gob.Register(stream.Record{})
	core.RegisterWireTypes()
	clustream.RegisterWireTypes()
}

// gobRoundTrip is the reference codec: whatever gob reproduces is, by
// definition of this PR, what the columnar codec must reproduce too.
func gobRoundTrip(t testing.TB, p mbsp.Partition) mbsp.Partition {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out mbsp.Partition
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

// bitEqual compares two decoded values structurally: pointers and
// interfaces are dereferenced (gob flattens *KeyedItem to a KeyedItem
// value while the columnar codec decodes to *KeyedItem — both are
// acceptable to the shuffle), floats compare by bit pattern (NaN == NaN,
// -0 != +0), and nil slices equal empty ones (gob does not distinguish
// them either).
func bitEqual(a, b any) bool {
	return valEqual(reflect.ValueOf(a), reflect.ValueOf(b))
}

func valEqual(a, b reflect.Value) bool {
	for a.IsValid() && (a.Kind() == reflect.Pointer || a.Kind() == reflect.Interface) && !a.IsNil() {
		a = a.Elem()
	}
	for b.IsValid() && (b.Kind() == reflect.Pointer || b.Kind() == reflect.Interface) && !b.IsNil() {
		b = b.Elem()
	}
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid() ||
			(a.IsValid() && a.Kind() == reflect.Slice && a.Len() == 0) ||
			(b.IsValid() && b.Kind() == reflect.Slice && b.Len() == 0)
	}
	if (a.Kind() == reflect.Pointer || a.Kind() == reflect.Interface) && a.IsNil() {
		return (b.Kind() == reflect.Pointer || b.Kind() == reflect.Interface) && b.IsNil()
	}
	if (b.Kind() == reflect.Pointer || b.Kind() == reflect.Interface) && b.IsNil() {
		return false
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !valEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if !valEqual(a.MapIndex(k), b.MapIndex(k)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !valEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

func rec(seq uint64, ts float64, label int, vals ...float64) stream.Record {
	return stream.Record{Seq: seq, Timestamp: vclock.Time(ts), Values: vector.Vector(vals), Label: label}
}

// roundTrip asserts the columnar codec covers p and reproduces gob's
// round trip of it.
func roundTrip(t *testing.T, p mbsp.Partition) {
	t.Helper()
	cols, ok := wire.EncodePartition(p)
	if !ok {
		t.Fatalf("EncodePartition declined %T", p[0])
	}
	dec, err := wire.DecodePartition(cols)
	if err != nil {
		t.Fatalf("DecodePartition: %v", err)
	}
	ref := gobRoundTrip(t, p)
	if !bitEqual(dec, ref) {
		t.Fatalf("columnar decode diverges from gob:\n cols: %#v\n gob:  %#v", dec, ref)
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	roundTrip(t, mbsp.Partition{
		rec(1, 0.5, 0, 1, 2, 3),
		rec(2, 1.5, -7, math.NaN(), math.Inf(1), math.Inf(-1)),
		rec(1<<60, -0.0, 1, 0, -0.0, 4.25),
	})
	// Dimension zero: records with no coordinates at all.
	roundTrip(t, mbsp.Partition{rec(1, 1, 0), rec(2, 2, 1)})
}

func TestKeyedRoundTrip(t *testing.T) {
	k1 := mbsp.KeyedItem{Key: 9, Item: rec(1, 0.25, 2, 1, 2)}
	k2 := mbsp.KeyedItem{Key: core.OutlierKeyBase | 3, Item: rec(2, 0.5, -1, 3, math.NaN())}
	// Both the value form and the pointer form the assign stage emits.
	roundTrip(t, mbsp.Partition{k1, k2})
	roundTrip(t, mbsp.Partition{&k1, &k2})
}

func TestGroupsRoundTrip(t *testing.T) {
	roundTrip(t, mbsp.Partition{
		mbsp.Group{Key: 1, Items: []mbsp.Item{rec(1, 1, 0, 1, 1), rec(2, 2, 0, 2, 2)}},
		mbsp.Group{Key: core.OutlierKeyBase, Items: []mbsp.Item{rec(3, 3, 1, math.Inf(1), -0.0)}},
		mbsp.Group{Key: 7, Items: nil},
	})
}

func clMC(id uint64, n float64, cf1 ...float64) *clustream.MC {
	cf2 := make(vector.Vector, len(cf1))
	for i, v := range cf1 {
		cf2[i] = v * v
	}
	return &clustream.MC{Id: id, CF1X: vector.Vector(cf1), CF2X: cf2, CF1T: n, CF2T: n * n, N: n, Born: 1, Last: 2}
}

func TestUpdatesRoundTrip(t *testing.T) {
	roundTrip(t, mbsp.Partition{
		core.Update{Kind: core.KindUpdated, MC: clMC(4, 2, 1, 2), Absorbed: 2, OrderTime: 1.5, OrderSeq: 11},
		core.Update{Kind: core.KindCreated, MC: clMC(9, 1, math.NaN(), math.Inf(-1)), Absorbed: 1, OrderTime: 2.5, OrderSeq: 12},
	})
}

func TestEncodePartitionDeclines(t *testing.T) {
	cases := map[string]mbsp.Partition{
		"empty":         {},
		"unknown items": {42, 43},
		"mixed dims":    {rec(1, 1, 0, 1, 2), rec(2, 2, 0, 1)},
		"nil update MC": {core.Update{Kind: core.KindUpdated}},
		"mixed shapes":  {rec(1, 1, 0, 1), mbsp.Group{Key: 1}},
	}
	for name, p := range cases {
		if _, ok := wire.EncodePartition(p); ok {
			t.Errorf("%s: EncodePartition accepted %v", name, p)
		}
	}
}

func TestDeltaValueRoundTrip(t *testing.T) {
	delta := &core.SnapshotDelta{
		Params: core.Params{
			Name:   clustream.Name,
			Dim:    2,
			Floats: map[string]float64{"radiusFactor": 1.8, "horizon": 0},
			Ints:   map[string]int{"maxMC": 64, "seed": -3},
		},
		FromVersion: 6,
		Version:     7,
		Order:       []uint64{1, 4, 9},
		Removed:     []uint64{2},
		Upserts:     []core.MicroCluster{clMC(4, 3, 1, 2), clMC(9, 1, math.Inf(1), -0.0)},
		Checksum:    0xdeadbeefcafe,
	}
	cols, ok, err := wire.EncodeValue(delta)
	if !ok || err != nil {
		t.Fatalf("EncodeValue declined a registered snapshot delta: ok=%v err=%v", ok, err)
	}
	got, err := wire.DecodeModel(cols)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(got, delta) {
		t.Fatalf("decoded delta = %+v, want %+v", got, delta)
	}
	// Unknown algorithm name: the model frame carries the delta through
	// gob, and it decodes to the same value.
	bad := *delta
	bad.Params.Name = "no-such-algo"
	gobbed, ok, err := wire.EncodeValue(&bad)
	if !ok || err != nil {
		t.Fatalf("EncodeValue declined a delta without a registered codec: ok=%v err=%v", ok, err)
	}
	if bytes.Equal(gobbed[:2], cols[:2]) {
		t.Errorf("codec-less delta shares the columnar frame header % x", cols[:2])
	}
	if got, err := wire.DecodeModel(gobbed); err != nil || !bitEqual(got, &bad) {
		t.Fatalf("gob model frame round trip = %+v, %v; want %+v", got, err, &bad)
	}
	// Values that are no model pass through untouched.
	if _, ok, _ := wire.EncodeValue(core.Params{}); ok {
		t.Error("EncodeValue claimed a non-model value")
	}
}

func TestCorruptFramesError(t *testing.T) {
	good, ok := wire.EncodePartition(mbsp.Partition{rec(1, 1, 0, 1, 2), rec(2, 2, 1, 3, 4)})
	if !ok {
		t.Fatal("encode declined")
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := wire.DecodePartition(good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	if _, err := wire.DecodePartition([]byte{99, 1}); err == nil {
		t.Error("wrong format version accepted")
	}
	if _, err := wire.DecodeModel([]byte{1, 42}); err == nil {
		t.Error("unknown value shape accepted")
	}
}
