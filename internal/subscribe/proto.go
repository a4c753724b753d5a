package subscribe

import (
	"fmt"

	"diststream/internal/core"
	"diststream/internal/vclock"
	"diststream/internal/wire"
)

// The subscription wire protocol. Every message is one length-prefixed
// frame (wire.WriteFrame/ReadFrame); payloads use the wire package's
// varint/float primitives so the framing layer stays dumb.
//
// Connection opening: the client sends exactly one hello frame carrying
// the protocol magic, its protocol version and an optional resume cursor
// (modelVersion, checksum). The hub answers with a stream of server
// frames and the client never writes again; liveness flows server →
// client via heartbeats, and a dead client surfaces as a failed write on
// the hub side.
//
// Server frames:
//
//   - model (kindModel): one core.SnapshotDelta. FromVersion == 0 marks
//     a full snapshot — the delta from the empty model — which the
//     client applies against an empty base; FromVersion > 0 is an
//     incremental delta the client applies against its replica at
//     exactly that version. Either way core's checksum validation
//     guards the result, so a full snapshot is "checksummed" for free.
//   - heartbeat (kindHeartbeat): the hub's latest version, sent on idle
//     so both sides can detect a dead or wedged peer.
//   - goodbye (kindGoodbye): clean shutdown; the client should back off
//     and reconnect with its cursor (the hub may be restarting).

const (
	// protoMagic opens every hello frame.
	protoMagic = "DSUB"
	// protoVersion is bumped on incompatible protocol changes; the hub
	// rejects hellos with a different version.
	protoVersion = 2
)

// Server frame kinds (first payload byte).
const (
	kindModel     = 1
	kindHeartbeat = 2
	kindGoodbye   = 3
)

// maxHelloSize bounds the hello frame a hub will read: the fixed fields
// fit in tens of bytes, so anything larger is garbage or an attack.
const maxHelloSize = 256

// hello is the one client → hub message.
type hello struct {
	// hasCursor distinguishes "resume from (version, checksum)" from a
	// fresh subscription (version 0 is not a valid cursor, so the flag
	// is explicit rather than sentinel-encoded).
	hasCursor bool
	version   uint64
	checksum  uint64
}

func encodeHello(h hello) []byte {
	e := wire.NewEnc(32)
	e.String(protoMagic)
	e.Byte(protoVersion)
	e.Bool(h.hasCursor)
	e.Uint(h.version)
	e.Uint(h.checksum)
	return e.Bytes()
}

func decodeHello(payload []byte) (hello, error) {
	d := wire.NewDec(payload)
	magic := d.String()
	ver := d.Byte()
	h := hello{hasCursor: d.Bool(), version: d.Uint(), checksum: d.Uint()}
	if err := d.Err(); err != nil {
		return hello{}, err
	}
	if magic != protoMagic {
		return hello{}, fmt.Errorf("subscribe: bad hello magic %q", magic)
	}
	if ver != protoVersion {
		return hello{}, fmt.Errorf("subscribe: protocol version %d, want %d", ver, protoVersion)
	}
	return h, nil
}

// modelHeader is the fixed-size front of a model frame: enough for a
// subscriber to maintain its cursor (version, checksum) and classify the
// frame (fromVersion == 0 marks a full snapshot) without decoding the
// delta body — the drain path in Client depends on exactly this split.
type modelHeader struct {
	version     uint64
	fromVersion uint64
	checksum    uint64
	batch       int
	time        vclock.Time
}

// modelFrame is a decoded model frame: header plus the delta to apply.
type modelFrame struct {
	modelHeader
	delta *core.SnapshotDelta
}

// encodeModelPayload builds a model frame payload: the header, then the
// delta as one wire model frame — the same encoding the TCP executor
// ships to workers.
func encodeModelPayload(version, checksum uint64, batch int, t vclock.Time, d *core.SnapshotDelta) ([]byte, error) {
	body, err := wire.EncodeModel(d)
	if err != nil {
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	e := wire.NewEnc(32 + len(body))
	e.Byte(kindModel)
	e.Uint(version)
	e.Uint(d.FromVersion)
	e.Uint(checksum)
	e.Int(int64(batch))
	e.F64(float64(t))
	e.Uint(uint64(len(body)))
	return append(e.Bytes(), body...), nil
}

// decodeModelHeader reads just the fixed header, leaving the decoder
// positioned at the model body. The drain path stops here.
func decodeModelHeader(d *wire.Dec) (modelHeader, error) {
	h := modelHeader{
		version:     d.Uint(),
		fromVersion: d.Uint(),
		checksum:    d.Uint(),
		batch:       int(d.Int()),
		time:        vclock.Time(d.F64()),
	}
	if err := d.Err(); err != nil {
		return modelHeader{}, err
	}
	return h, nil
}

func decodeModelPayload(d *wire.Dec) (modelFrame, error) {
	h, err := decodeModelHeader(d)
	if err != nil {
		return modelFrame{}, err
	}
	// The body was appended as a uvarint length plus raw bytes — the
	// same layout as a wire string — so String recovers it in one
	// bounded read.
	body := []byte(d.String())
	if err := d.Err(); err != nil {
		return modelFrame{}, err
	}
	f := modelFrame{modelHeader: h}
	if f.delta, err = wire.DecodeModel(body); err != nil {
		return modelFrame{}, err
	}
	if f.delta.Version != f.version || f.delta.FromVersion != f.fromVersion || f.delta.Checksum != f.checksum {
		return modelFrame{}, fmt.Errorf("subscribe: frame header (v%d←%d sum %#x) disagrees with delta (v%d←%d sum %#x)",
			f.version, f.fromVersion, f.checksum, f.delta.Version, f.delta.FromVersion, f.delta.Checksum)
	}
	return f, nil
}

func encodeHeartbeat(latest uint64) []byte {
	e := wire.NewEnc(16)
	e.Byte(kindHeartbeat)
	e.Uint(latest)
	return e.Bytes()
}

func encodeGoodbye() []byte {
	e := wire.NewEnc(1)
	e.Byte(kindGoodbye)
	return e.Bytes()
}
