// Package wire implements the hand-rolled columnar encoding for the TCP
// executor's hot frames: record partitions, keyed records, shuffled
// groups, local-update outputs and model frames. The hot payloads of
// every batch are numeric and homogeneous, so instead of gob's
// reflection-driven per-item walk they are laid out as length-prefixed
// columns — all sequence numbers together as varints, all timestamps
// together as raw float64 bits, all coordinates as one contiguous float64
// block — which encodes with straight loops and decodes into shared
// backing arrays.
//
// A model version crosses every socket in one form, the model frame: a
// core.SnapshotDelta, where a full model is the delta from the empty
// model. EncodeModel is the one place that chooses its encoding —
// columnar when the algorithm registered a micro-cluster codec, gob
// inside the frame otherwise — for the TCP executor and the
// subscription hub alike. Task partitions are partial the other way:
// EncodePartition reports ok=false for shapes it cannot express
// (unknown user item types, mixed shapes, micro-clusters without a
// registered codec), and the caller ships those through gob. Control
// frames — task headers, faults, the task config — stay on gob
// entirely.
//
// Decoding never trusts the input: counts are bounded by the remaining
// byte budget before any allocation, all reads go through a sticky-error
// cursor, and corrupt or truncated frames return an error — never panic
// (FuzzWireCodec and FuzzModelFrame hold the codec to that, the former
// differentially against a gob reference).
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"

	"diststream/internal/core"
	"diststream/internal/mbsp"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
)

// formatVersion is the first byte of every columnar frame; decoders
// reject anything else so the format can evolve without ambiguity.
const formatVersion = 1

// Frame shapes (second byte).
const (
	shapeRecords      = 1  // []stream.Record
	shapeKeyedRecords = 2  // []KeyedItem / []*KeyedItem carrying records
	shapeGroups       = 3  // []mbsp.Group of records (post-shuffle)
	shapeUpdates      = 4  // []core.Update with codec-registered MCs
	shapeDelta        = 9  // *core.SnapshotDelta, columnar (model frame)
	shapeDeltaGob     = 10 // *core.SnapshotDelta, gob (model frame without an MC codec)
)

// ErrCorrupt wraps every decode failure: the frame is truncated,
// inconsistent, or references an unregistered micro-cluster codec.
var ErrCorrupt = errors.New("wire: corrupt frame")

// Enc is an append-only encoding buffer. The column writers are plain
// loops over binary.Append*, so encoding runs at memcpy-like speed.
type Enc struct {
	buf []byte
}

// NewEnc returns an encoder with the given initial capacity.
func NewEnc(capacity int) *Enc { return &Enc{buf: make([]byte, 0, capacity)} }

// Bytes returns the encoded frame.
func (e *Enc) Bytes() []byte { return e.buf }

// Byte appends one raw byte.
func (e *Enc) Byte(b byte) { e.buf = append(e.buf, b) }

// Uint appends an unsigned varint.
func (e *Enc) Uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int appends a zigzag varint.
func (e *Enc) Int(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// F64 appends the raw little-endian bit pattern of v — exact for every
// float64 including NaN payloads and infinities.
func (e *Enc) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// F64s appends a length-prefixed float64 column.
func (e *Enc) F64s(vs []float64) {
	e.Uint(uint64(len(vs)))
	e.f64block(vs)
}

// f64block appends float64s without a count (the caller knows it).
func (e *Enc) f64block(vs []float64) {
	for _, v := range vs {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
	}
}

// Uints appends a length-prefixed uvarint column.
func (e *Enc) Uints(vs []uint64) {
	e.Uint(uint64(len(vs)))
	for _, v := range vs {
		e.Uint(v)
	}
}

// Ints appends a length-prefixed zigzag-varint column.
func (e *Enc) Ints(vs []int) {
	e.Uint(uint64(len(vs)))
	for _, v := range vs {
		e.Int(int64(v))
	}
}

// Dec is a sticky-error decoding cursor: after the first failure every
// read returns a zero value and Err reports the failure, so codec code
// reads columns unconditionally and checks once.
type Dec struct {
	data []byte
	err  error
}

// NewDec returns a decoder over data.
func NewDec(data []byte) *Dec { return &Dec{data: data} }

// Err returns the first decode failure, or nil.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, msg)
	}
}

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 1 {
		d.fail("truncated byte")
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// Uint reads an unsigned varint.
func (d *Dec) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// Int reads a zigzag varint.
func (d *Dec) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// F64 reads a raw little-endian float64.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data))
	d.data = d.data[8:]
	return v
}

// Bool reads a one-byte bool.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Uint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.data)) {
		d.fail("string length exceeds frame")
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

// Count validates a claimed element count against the remaining byte
// budget (each element occupies at least minBytes) and returns it as an
// int. It keeps hostile counts from driving huge allocations.
func (d *Dec) Count(minBytes int) int {
	n := d.Uint()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(len(d.data)/minBytes) {
		d.fail("count exceeds frame size")
		return 0
	}
	return int(n)
}

// F64s reads a length-prefixed float64 column. A zero-length column
// decodes as nil, matching gob's round trip of empty slices.
func (d *Dec) F64s() []float64 {
	n := d.Count(8)
	return d.f64block(n)
}

// f64block reads n raw float64s (count already validated).
func (d *Dec) f64block(n int) []float64 {
	if d.err != nil || n == 0 {
		return nil
	}
	if n < 0 || len(d.data) < n*8 {
		d.fail("truncated float64 block")
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.data[i*8:]))
	}
	d.data = d.data[n*8:]
	return out
}

// Uints reads a length-prefixed uvarint column (nil when empty).
func (d *Dec) Uints() []uint64 {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.Uint()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Ints reads a length-prefixed zigzag column (nil when empty).
func (d *Dec) Ints() []int {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.Int())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// MCEncoder writes one micro-cluster; it returns false when mc is not the
// codec's concrete type (the whole frame then falls back to gob).
type MCEncoder func(e *Enc, mc core.MicroCluster) bool

// MCDecoder reads one micro-cluster through the sticky cursor; it
// returns nil when the cursor failed.
type MCDecoder func(d *Dec) core.MicroCluster

type mcCodec struct {
	name string
	enc  MCEncoder
	dec  MCDecoder
}

var (
	mcMu       sync.RWMutex
	mcByName   = make(map[string]mcCodec)
	mcNameByTy = make(map[reflect.Type]string)
)

// RegisterMCCodec registers the columnar codec for one algorithm's
// micro-cluster type under the algorithm's registry name. Both the
// driver and every worker binary must register identically (the
// algorithms' RegisterWireTypes do, next to their gob registrations).
// Re-registration replaces, so the call is idempotent.
func RegisterMCCodec(name string, prototype core.MicroCluster, enc MCEncoder, dec MCDecoder) {
	mcMu.Lock()
	defer mcMu.Unlock()
	mcByName[name] = mcCodec{name: name, enc: enc, dec: dec}
	mcNameByTy[reflect.TypeOf(prototype)] = name
}

func lookupMCCodec(name string) (mcCodec, bool) {
	mcMu.RLock()
	defer mcMu.RUnlock()
	c, ok := mcByName[name]
	return c, ok
}

func mcCodecFor(mc core.MicroCluster) (mcCodec, bool) {
	mcMu.RLock()
	defer mcMu.RUnlock()
	name, ok := mcNameByTy[reflect.TypeOf(mc)]
	if !ok {
		return mcCodec{}, false
	}
	return mcByName[name], true
}

// EncodePartition encodes a task partition columnar when every item fits
// one of the hot shapes; ok=false means the caller must use gob.
func EncodePartition(p mbsp.Partition) ([]byte, bool) {
	if len(p) == 0 {
		return nil, false
	}
	switch p[0].(type) {
	case stream.Record:
		return encodeRecords(p)
	case mbsp.KeyedItem, *mbsp.KeyedItem:
		return encodeKeyed(p)
	case mbsp.Group:
		return encodeGroups(p)
	case core.Update:
		return encodeUpdates(p)
	}
	return nil, false
}

// DecodePartition decodes a columnar task partition.
func DecodePartition(data []byte) (mbsp.Partition, error) {
	d := NewDec(data)
	if v := d.Byte(); d.Err() == nil && v != formatVersion {
		return nil, fmt.Errorf("%w: format version %d", ErrCorrupt, v)
	}
	shape := d.Byte()
	if d.Err() != nil {
		return nil, d.Err()
	}
	switch shape {
	case shapeRecords:
		return decodeRecords(d)
	case shapeKeyedRecords:
		return decodeKeyed(d)
	case shapeGroups:
		return decodeGroups(d)
	case shapeUpdates:
		return decodeUpdates(d)
	}
	return nil, fmt.Errorf("%w: unknown partition shape %d", ErrCorrupt, shape)
}

// EncodeModel encodes one model frame. It is the single decision point
// between columnar and gob for a model version on a socket: columnar
// when d's algorithm registered a micro-cluster codec, gob otherwise
// (its micro-cluster types must then be gob-registered on both ends).
func EncodeModel(d *core.SnapshotDelta) ([]byte, error) {
	if b, ok := encodeDelta(d); ok {
		return b, nil
	}
	var buf bytes.Buffer
	buf.Write([]byte{formatVersion, shapeDeltaGob})
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		return nil, fmt.Errorf("wire: encode model v%d: %w", d.Version, err)
	}
	return buf.Bytes(), nil
}

// DecodeModel decodes an EncodeModel frame.
func DecodeModel(data []byte) (*core.SnapshotDelta, error) {
	d := NewDec(data)
	if v := d.Byte(); d.Err() == nil && v != formatVersion {
		return nil, fmt.Errorf("%w: format version %d", ErrCorrupt, v)
	}
	shape := d.Byte()
	if d.Err() != nil {
		return nil, d.Err()
	}
	switch shape {
	case shapeDelta:
		return decodeDelta(d)
	case shapeDeltaGob:
		delta := new(core.SnapshotDelta)
		if err := gob.NewDecoder(bytes.NewReader(d.data)).Decode(delta); err != nil {
			return nil, fmt.Errorf("%w: gob model: %v", ErrCorrupt, err)
		}
		return delta, nil
	}
	return nil, fmt.Errorf("%w: unknown model shape %d", ErrCorrupt, shape)
}

// EncodeValue encodes a TCP broadcast value. Model values — a
// *core.SnapshotDelta, or a *core.ModelBroadcast, which ships as the
// delta from the empty model — become model frames (DecodeModel reads
// them back); ok=false means v is no model value and the caller ships it
// through gob.
func EncodeValue(v mbsp.Item) (frame []byte, ok bool, err error) {
	var d *core.SnapshotDelta
	switch m := v.(type) {
	case *core.SnapshotDelta:
		d = m
	case *core.ModelBroadcast:
		d = core.FullDelta(m.Params, m.Version, m.MCs)
	default:
		return nil, false, nil
	}
	frame, err = EncodeModel(d)
	return frame, true, err
}

// dimOf reads a claimed record dimensionality and bounds n*dim against
// the remaining frame (coordinates alone need 8 bytes each), so corrupt
// frames cannot drive oversized or overflowing allocations.
func (d *Dec) dimOf(n int) int {
	dim := int(d.Uint())
	if d.err != nil {
		return 0
	}
	if dim < 0 || (n > 0 && uint64(n)*uint64(dim) > uint64(len(d.data))/8) {
		d.fail("record block exceeds frame")
		return 0
	}
	return dim
}

// recordDim extracts the uniform record dimensionality; ok=false on mixed
// dimensionality (the one irregularity gob handles and columns cannot).
func recordDim(recs []stream.Record) (int, bool) {
	if len(recs) == 0 {
		return 0, true
	}
	dim := len(recs[0].Values)
	for _, r := range recs[1:] {
		if len(r.Values) != dim {
			return 0, false
		}
	}
	return dim, true
}

// writeRecordBlock appends the four record columns: seq varints,
// timestamp bits, label zigzags, then one contiguous values block.
func writeRecordBlock(e *Enc, recs []stream.Record, dim int) {
	for _, r := range recs {
		e.Uint(r.Seq)
	}
	for _, r := range recs {
		e.F64(float64(r.Timestamp))
	}
	for _, r := range recs {
		e.Int(int64(r.Label))
	}
	for _, r := range recs {
		e.f64block(r.Values)
	}
	_ = dim
}

// readRecordBlock reads n records of dim values each; all coordinate
// vectors are windows into one shared backing array.
func readRecordBlock(d *Dec, n, dim int) []stream.Record {
	recs := make([]stream.Record, n)
	for i := range recs {
		recs[i].Seq = d.Uint()
	}
	for i := range recs {
		recs[i].Timestamp = vclock.Time(d.F64())
	}
	for i := range recs {
		recs[i].Label = int(d.Int())
	}
	if dim > 0 {
		backing := d.f64block(n * dim)
		if d.err == nil {
			for i := range recs {
				recs[i].Values = vector.Vector(backing[i*dim : (i+1)*dim])
			}
		}
	}
	return recs
}

func encodeRecords(p mbsp.Partition) ([]byte, bool) {
	recs := make([]stream.Record, len(p))
	for i, item := range p {
		r, ok := item.(stream.Record)
		if !ok {
			return nil, false
		}
		recs[i] = r
	}
	dim, ok := recordDim(recs)
	if !ok {
		return nil, false
	}
	e := NewEnc(2 + 20 + len(recs)*(12+8+2+dim*8))
	e.Byte(formatVersion)
	e.Byte(shapeRecords)
	e.Uint(uint64(len(recs)))
	e.Uint(uint64(dim))
	writeRecordBlock(e, recs, dim)
	return e.Bytes(), true
}

func decodeRecords(d *Dec) (mbsp.Partition, error) {
	n := d.Count(1)
	dim := d.dimOf(n)
	if d.Err() != nil {
		return nil, d.Err()
	}
	recs := readRecordBlock(d, n, dim)
	if err := d.Err(); err != nil {
		return nil, err
	}
	out := make(mbsp.Partition, n)
	for i := range recs {
		out[i] = recs[i]
	}
	return out, nil
}

func encodeKeyed(p mbsp.Partition) ([]byte, bool) {
	keys := make([]uint64, len(p))
	recs := make([]stream.Record, len(p))
	for i, item := range p {
		var inner mbsp.Item
		switch ki := item.(type) {
		case mbsp.KeyedItem:
			keys[i], inner = ki.Key, ki.Item
		case *mbsp.KeyedItem:
			keys[i], inner = ki.Key, ki.Item
		default:
			return nil, false
		}
		r, ok := inner.(stream.Record)
		if !ok {
			return nil, false
		}
		recs[i] = r
	}
	dim, ok := recordDim(recs)
	if !ok {
		return nil, false
	}
	e := NewEnc(2 + 20 + len(recs)*(10+12+8+2+dim*8))
	e.Byte(formatVersion)
	e.Byte(shapeKeyedRecords)
	e.Uint(uint64(len(recs)))
	e.Uint(uint64(dim))
	for _, k := range keys {
		e.Uint(k)
	}
	writeRecordBlock(e, recs, dim)
	return e.Bytes(), true
}

func decodeKeyed(d *Dec) (mbsp.Partition, error) {
	n := d.Count(1)
	dim := d.dimOf(n)
	if d.Err() != nil {
		return nil, d.Err()
	}
	keyed := make([]mbsp.KeyedItem, n)
	for i := range keyed {
		keyed[i].Key = d.Uint()
	}
	recs := readRecordBlock(d, n, dim)
	if err := d.Err(); err != nil {
		return nil, err
	}
	out := make(mbsp.Partition, n)
	for i := range keyed {
		keyed[i].Item = recs[i]
		out[i] = &keyed[i]
	}
	return out, nil
}

func encodeGroups(p mbsp.Partition) ([]byte, bool) {
	var total int
	groups := make([]mbsp.Group, len(p))
	for i, item := range p {
		g, ok := item.(mbsp.Group)
		if !ok {
			return nil, false
		}
		groups[i] = g
		total += len(g.Items)
	}
	recs := make([]stream.Record, 0, total)
	for _, g := range groups {
		for _, item := range g.Items {
			r, ok := item.(stream.Record)
			if !ok {
				return nil, false
			}
			recs = append(recs, r)
		}
	}
	dim, ok := recordDim(recs)
	if !ok {
		return nil, false
	}
	e := NewEnc(2 + 20 + len(groups)*12 + total*(12+8+2+dim*8))
	e.Byte(formatVersion)
	e.Byte(shapeGroups)
	e.Uint(uint64(len(groups)))
	e.Uint(uint64(dim))
	for _, g := range groups {
		e.Uint(g.Key)
		e.Uint(uint64(len(g.Items)))
	}
	writeRecordBlock(e, recs, dim)
	return e.Bytes(), true
}

func decodeGroups(d *Dec) (mbsp.Partition, error) {
	n := d.Count(2)
	dim := int(d.Uint())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if dim < 0 || (dim > 0 && dim > len(d.data)/8) {
		return nil, fmt.Errorf("%w: record block exceeds frame", ErrCorrupt)
	}
	keys := make([]uint64, n)
	counts := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		keys[i] = d.Uint()
		c := d.Uint()
		if d.err != nil {
			return nil, d.Err()
		}
		if c > uint64(len(d.data)) {
			return nil, fmt.Errorf("%w: group size exceeds frame", ErrCorrupt)
		}
		counts[i] = int(c)
		total += counts[i]
	}
	if total > len(d.data) {
		return nil, fmt.Errorf("%w: group totals exceed frame", ErrCorrupt)
	}
	recs := readRecordBlock(d, total, dim)
	if err := d.Err(); err != nil {
		return nil, err
	}
	items := make([]mbsp.Item, total)
	for i := range recs {
		items[i] = recs[i]
	}
	out := make(mbsp.Partition, n)
	off := 0
	for i := 0; i < n; i++ {
		out[i] = mbsp.Group{Key: keys[i], Items: items[off : off+counts[i] : off+counts[i]]}
		off += counts[i]
	}
	return out, nil
}

func encodeUpdates(p mbsp.Partition) ([]byte, bool) {
	updates := make([]core.Update, len(p))
	for i, item := range p {
		u, ok := item.(core.Update)
		if !ok || u.MC == nil {
			return nil, false
		}
		updates[i] = u
	}
	codec, ok := mcCodecFor(updates[0].MC)
	if !ok {
		return nil, false
	}
	e := NewEnc(64 + len(updates)*96)
	e.Byte(formatVersion)
	e.Byte(shapeUpdates)
	e.String(codec.name)
	e.Uint(uint64(len(updates)))
	for _, u := range updates {
		e.Byte(byte(u.Kind))
	}
	for _, u := range updates {
		e.Uint(uint64(u.Absorbed))
	}
	for _, u := range updates {
		e.F64(float64(u.OrderTime))
	}
	for _, u := range updates {
		e.Uint(u.OrderSeq)
	}
	for _, u := range updates {
		if !codec.enc(e, u.MC) {
			return nil, false
		}
	}
	return e.Bytes(), true
}

func decodeUpdates(d *Dec) (mbsp.Partition, error) {
	name := d.String()
	n := d.Count(1)
	if d.Err() != nil {
		return nil, d.Err()
	}
	codec, ok := lookupMCCodec(name)
	if !ok {
		return nil, fmt.Errorf("%w: no micro-cluster codec registered for %q", ErrCorrupt, name)
	}
	updates := make([]core.Update, n)
	for i := range updates {
		updates[i].Kind = core.UpdateKind(d.Byte())
	}
	for i := range updates {
		updates[i].Absorbed = int(d.Uint())
	}
	for i := range updates {
		updates[i].OrderTime = vclock.Time(d.F64())
	}
	for i := range updates {
		updates[i].OrderSeq = d.Uint()
	}
	for i := range updates {
		updates[i].MC = codec.dec(d)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	out := make(mbsp.Partition, n)
	for i := range updates {
		out[i] = updates[i]
	}
	return out, nil
}

// encodeParams writes core.Params with sorted map keys, so the encoding
// is deterministic.
func encodeParams(e *Enc, p core.Params) {
	e.String(p.Name)
	e.Uint(uint64(p.Dim))
	fkeys := make([]string, 0, len(p.Floats))
	for k := range p.Floats {
		fkeys = append(fkeys, k)
	}
	sort.Strings(fkeys)
	e.Uint(uint64(len(fkeys)))
	for _, k := range fkeys {
		e.String(k)
		e.F64(p.Floats[k])
	}
	ikeys := make([]string, 0, len(p.Ints))
	for k := range p.Ints {
		ikeys = append(ikeys, k)
	}
	sort.Strings(ikeys)
	e.Uint(uint64(len(ikeys)))
	for _, k := range ikeys {
		e.String(k)
		e.Int(int64(p.Ints[k]))
	}
}

func decodeParams(d *Dec) core.Params {
	p := core.Params{Name: d.String(), Dim: int(d.Uint())}
	if n := d.Count(2); n > 0 {
		p.Floats = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			k := d.String()
			p.Floats[k] = d.F64()
		}
	}
	if n := d.Count(2); n > 0 {
		p.Ints = make(map[string]int, n)
		for i := 0; i < n; i++ {
			k := d.String()
			p.Ints[k] = int(d.Int())
		}
	}
	return p
}

func encodeDelta(delta *core.SnapshotDelta) ([]byte, bool) {
	codec, ok := lookupMCCodec(delta.Params.Name)
	if !ok {
		return nil, false
	}
	e := NewEnc(128 + len(delta.Order)*4 + len(delta.Upserts)*96)
	e.Byte(formatVersion)
	e.Byte(shapeDelta)
	encodeParams(e, delta.Params)
	e.Uint(delta.FromVersion)
	e.Uint(delta.Version)
	e.Uint(delta.Checksum)
	e.Uints(delta.Order)
	e.Uints(delta.Removed)
	e.Uint(uint64(len(delta.Upserts)))
	for _, mc := range delta.Upserts {
		if !codec.enc(e, mc) {
			return nil, false
		}
	}
	return e.Bytes(), true
}

func decodeDelta(d *Dec) (*core.SnapshotDelta, error) {
	delta := &core.SnapshotDelta{Params: decodeParams(d)}
	delta.FromVersion = d.Uint()
	delta.Version = d.Uint()
	delta.Checksum = d.Uint()
	delta.Order = d.Uints()
	delta.Removed = d.Uints()
	n := d.Count(1)
	if d.Err() != nil {
		return nil, d.Err()
	}
	codec, ok := lookupMCCodec(delta.Params.Name)
	if !ok {
		return nil, fmt.Errorf("%w: no micro-cluster codec registered for %q", ErrCorrupt, delta.Params.Name)
	}
	delta.Upserts = make([]core.MicroCluster, n)
	for i := range delta.Upserts {
		delta.Upserts[i] = codec.dec(d)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return delta, nil
}
