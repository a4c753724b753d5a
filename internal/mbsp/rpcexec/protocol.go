// Package rpcexec provides a TCP-based executor for the mbsp engine:
// worker processes listen on sockets, the driver ships gob-encoded tasks
// and broadcast variables, and workers resolve operation names against
// their own (identically linked) registry — the moral equivalent of Spark
// shipping an application jar to each executor and then sending tasks.
//
// The in-process LocalExecutor and this executor implement the same
// mbsp.Executor interface, so a pipeline runs unmodified on either.
package rpcexec

import (
	"bufio"
	"encoding/gob"
	"net"
	"sync"
	"sync/atomic"

	"diststream/internal/mbsp"
	"diststream/internal/stream"
)

// msgKind discriminates request messages on a worker connection.
type msgKind int

const (
	kindBroadcast msgKind = iota + 1
	kindTask
	kindShutdown
	// kindPing is a lightweight health probe: the worker answers an empty
	// response immediately, without touching registries or broadcasts.
	kindPing
)

// request is the single driver→worker message frame. The envelope always
// travels through gob; hot payloads (task partitions, model frames) ride
// inside it pre-encoded (the *Cols fields), with the gob-typed fields as
// the fallback for shapes the wire codec does not cover.
type request struct {
	Kind msgKind

	// Broadcast fields. Exactly one of BroadcastValue and BroadcastCols
	// carries the payload; BroadcastCols holds a wire model frame (every
	// model version, full or delta, travels as one). A payload that is an
	// mbsp.BroadcastDelta applies onto the worker's current value for the
	// id; BroadcastVersion is the driver's version of the resulting value
	// (observability only — the driver tracks per-worker versions itself).
	BroadcastID      string
	BroadcastValue   mbsp.Item
	BroadcastCols    []byte
	BroadcastVersion uint64

	// Task fields. Exactly one of Input and InputCols carries the
	// partition; InputCols holds a wire.EncodePartition frame.
	Stage     string
	Op        string
	TaskID    int
	Input     mbsp.Partition
	InputCols []byte
}

// response is the single worker→driver message frame. Like requests,
// task outputs travel columnar in OutputCols when the codec covers their
// shape, and through the gob-typed Output otherwise.
type response struct {
	TaskID     int
	Output     mbsp.Partition
	OutputCols []byte
	Err        string
}

// RegisterType registers a concrete type with gob so it can travel inside
// mbsp.Item fields. Every payload type crossing the wire through gob
// (records, keyed items, groups, micro-clusters) must be registered by
// both the driver and the worker binary before use.
func RegisterType(v any) { gob.Register(v) }

// registerBuiltins registers the engine's own envelope types plus the
// stream record type that every pipeline ships.
func registerBuiltins() {
	// The zero-alloc assign stage emits *KeyedItem; gob flattens pointers
	// to their registered base type, so the value registration covers both
	// forms (a remote worker's *KeyedItem arrives as a KeyedItem value,
	// which the shuffle accepts either way).
	gob.Register(mbsp.KeyedItem{})
	gob.Register(mbsp.Group{})
	gob.Register(stream.Record{})
}

// countingConn wraps a worker connection and counts the bytes crossing
// it, so the driver can report broadcast and task traffic (the payoff
// measurement for the delta/columnar paths) without instrumenting gob.
type countingConn struct {
	net.Conn
	sent  *atomic.Int64
	recvd *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recvd.Add(int64(n))
	return n, err
}

// writerPool recycles the buffered writers frames are gob-encoded
// through, and readerPool the buffered readers frames are decoded from.
// Connections are long-lived, but redials and worker-side accepts churn
// through codecs, and one pooled 32 KiB buffer per live connection beats
// a fresh allocation per dial.
var (
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 32<<10) }}
)

// frameCodec owns one connection's gob streams. The encoder writes
// through a pooled bufio.Writer (flushed once per frame), so gob's short
// per-message writes — length prefixes, type descriptors — coalesce into
// few syscalls while payloads larger than the buffer pass straight
// through without an extra copy; the decoder reads through a pooled
// bufio.Reader, batching gob's short length-prefix reads the same way.
// Both gob streams live as long as the connection, so type descriptors
// travel once per connection, not once per frame.
//
// Deadlines and cancellation keep working unchanged: the buffered Writes
// and Reads land on the connection, which is what SetDeadline and the
// close-on-cancel hook interrupt.
type frameCodec struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func newFrameCodec(conn net.Conn) *frameCodec {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(conn)
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(conn)
	return &frameCodec{
		conn: conn,
		bw:   bw,
		br:   br,
		enc:  gob.NewEncoder(bw),
		dec:  gob.NewDecoder(br),
	}
}

// send gob-encodes v through the buffered writer and flushes the frame
// to the connection.
func (c *frameCodec) send(v any) error {
	if err := c.enc.Encode(v); err != nil {
		return err
	}
	return c.bw.Flush()
}

// recv decodes the next frame into v.
func (c *frameCodec) recv(v any) error { return c.dec.Decode(v) }

// release returns the pooled buffers. The codec is unusable afterwards;
// callers discard it together with the connection.
func (c *frameCodec) release() {
	if c.bw != nil {
		c.bw.Reset(nil)
		writerPool.Put(c.bw)
		c.bw = nil
	}
	if c.br != nil {
		c.br.Reset(nil)
		readerPool.Put(c.br)
		c.br = nil
	}
	c.enc, c.dec = nil, nil
}
