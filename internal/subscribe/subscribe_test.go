package subscribe

import (
	"bytes"
	"context"
	"encoding/gob"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"diststream/internal/backoff"
	"diststream/internal/core"
	"diststream/internal/serve"
	"diststream/internal/simple"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
	"diststream/internal/wire"
)

func testAlgos(t testing.TB) *core.AlgorithmRegistry {
	t.Helper()
	simple.RegisterWireTypes()
	algos := core.NewAlgorithmRegistry()
	if err := simple.Register(algos); err != nil {
		t.Fatal(err)
	}
	return algos
}

// versionPublished builds the v-th publication of a deterministic
// three-micro-cluster stream: two micro-clusters stay bit-identical
// across versions (so deltas are real deltas) and the third's weight
// tracks v.
func versionPublished(v int) core.Published {
	algo := simple.New(simple.Config{Radius: 2})
	centers := []vector.Vector{{0, 0}, {10, 10}, {20, 20}}
	weights := []float64{4, 6, 8 + float64(v)}
	mcs := make([]core.MicroCluster, len(centers))
	for i := range centers {
		// Only the last micro-cluster varies with v: the others stay
		// bit-identical across versions so DiffState produces genuine
		// deltas.
		updated := vclock.Time(1)
		if i == len(centers)-1 {
			updated = vclock.Time(v)
		}
		mcs[i] = &simple.MC{
			Id:      uint64(i + 1),
			Sum:     centers[i].Clone().Scale(weights[i]),
			W:       weights[i],
			Created: 0,
			Updated: updated,
		}
	}
	idx := core.BuildFlatIndex(mcs)
	return core.Published{
		Batch:  v,
		Time:   vclock.Time(v),
		MCs:    mcs,
		Index:  &idx,
		Search: algo.NewSnapshot(mcs),
		Params: algo.Params(),
		Stats:  core.RunStats{Batches: v, Records: v * 100},
	}
}

// newTestHub builds a hub over a fresh registry and serves it on a
// loopback listener. Heartbeats are fast so liveness paths get exercised
// without slowing tests.
func newTestHub(t *testing.T, keep, maxLag int) (*Hub, *serve.Registry, string) {
	t.Helper()
	registry := serve.NewRegistry(keep)
	hub, err := NewHub(HubConfig{
		Registry:       registry,
		Algos:          testAlgos(t),
		MaxLag:         maxLag,
		WriteTimeout:   2 * time.Second,
		HeartbeatEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hub.Serve(ln)
	t.Cleanup(func() { hub.Close() })
	return hub, registry, ln.Addr().String()
}

// waitEncoded blocks until the hub's encoder has committed through
// version v. Tests that inspect planning state directly need the
// barrier the subscriber path gets for free from its wake channel.
func (h *Hub) waitEncoded(t testing.TB, v uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.mu.Lock()
		done := h.encodedThrough >= v
		h.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("encoder never reached version %d", v)
		}
		time.Sleep(time.Millisecond)
	}
}

// gobMCs canonically encodes a micro-cluster list for byte-equality
// assertions (both sides registered the same gob types).
func gobMCs(t testing.TB, mcs []core.MicroCluster) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(mcs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testClientConfig(addr string, algos *core.AlgorithmRegistry) ClientConfig {
	return ClientConfig{
		Addr:    addr,
		Algos:   algos,
		Backoff: backoff.Policy{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	}
}

// --- protocol ------------------------------------------------------------

func TestHelloRoundTrip(t *testing.T) {
	for _, hi := range []hello{
		{},
		{hasCursor: true, version: 42, checksum: 0xdeadbeef},
	} {
		got, err := decodeHello(encodeHello(hi))
		if err != nil {
			t.Fatalf("decodeHello(%+v): %v", hi, err)
		}
		if got != hi {
			t.Errorf("hello round trip = %+v, want %+v", got, hi)
		}
	}
}

func TestHelloRejectsGarbage(t *testing.T) {
	bad := encodeHello(hello{hasCursor: true, version: 7, checksum: 9})
	bad[1] = 'X' // corrupt the magic
	if _, err := decodeHello(bad); err == nil {
		t.Error("corrupt magic accepted")
	}
	e := wire.NewEnc(16)
	e.String(protoMagic)
	e.Byte(protoVersion + 1)
	e.Bool(false)
	e.Uint(0)
	e.Uint(0)
	if _, err := decodeHello(e.Bytes()); err == nil {
		t.Error("future protocol version accepted")
	}
	if _, err := decodeHello([]byte{3}); err == nil {
		t.Error("truncated hello accepted")
	}
}

func TestModelPayloadRoundTrip(t *testing.T) {
	testAlgos(t)
	pub := versionPublished(3)
	d := &core.SnapshotDelta{
		Params:   pub.Params,
		Version:  5,
		Order:    []uint64{1, 2, 3},
		Upserts:  pub.MCs,
		Checksum: core.ChecksumMCs(pub.MCs),
	}
	for name, params := range map[string]core.Params{
		"wire": pub.Params,
		// An unregistered algorithm name forces the gob fallback path
		// (the MC concrete type itself is gob-registered).
		"gob": {Name: "no-such-codec", Dim: 2},
	} {
		d.Params = params
		payload, err := encodeModelPayload(d.Version, d.Checksum, 7, vclock.Time(1.5), d)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		dec := wire.NewDec(payload)
		if kind := dec.Byte(); kind != kindModel {
			t.Fatalf("%s: kind = %d", name, kind)
		}
		f, err := decodeModelPayload(dec)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if f.version != 5 || f.checksum != d.Checksum || f.batch != 7 || f.time != vclock.Time(1.5) {
			t.Errorf("%s: header = %+v", name, f)
		}
		if !bytes.Equal(gobMCs(t, f.delta.Upserts), gobMCs(t, d.Upserts)) {
			t.Errorf("%s: upserts did not round trip", name)
		}
	}
}

// --- hub planning --------------------------------------------------------

func TestHubPlanLifecycle(t *testing.T) {
	registry := serve.NewRegistry(4)
	hub, err := NewHub(HubConfig{Registry: registry, Algos: testAlgos(t), MaxLag: 3})
	if err != nil {
		t.Fatal(err)
	}
	hub.mu.Lock()
	if _, ok := hub.planLocked(0); ok {
		t.Error("plan before any publish should be empty")
	}
	hub.mu.Unlock()

	for v := 1; v <= 6; v++ {
		hub.Publish(versionPublished(v))
	}
	hub.waitEncoded(t, 6)
	// Retention keep=4 → window holds versions 3..6, all with deltas.
	if min, max := registry.Retained(); min != 3 || max != 6 {
		t.Fatalf("Retained() = (%d, %d), want (3, 6)", min, max)
	}

	hub.mu.Lock()
	defer hub.mu.Unlock()

	if plan, ok := hub.planLocked(6); ok {
		t.Errorf("current subscriber got a plan: %+v", plan)
	}
	// Two behind, within MaxLag, chain intact → two deltas.
	plan, ok := hub.planLocked(4)
	if !ok || plan.full || len(plan.payloads) != 2 || plan.sent != 6 {
		t.Fatalf("plan(4) = %+v ok=%v, want 2 deltas to 6", plan, ok)
	}
	// The payloads are the shared per-entry encodings, not copies.
	if &plan.payloads[0][0] != &hub.window[2].deltaPayload[0] {
		t.Error("plan did not share the retained delta payload")
	}
	// Lag 4 > MaxLag 3 → shed to full snapshot even though version 3 is
	// still one past the window root.
	plan, ok = hub.planLocked(2)
	if !ok || !plan.full || !plan.shed || plan.sent != 6 || plan.fullOf != hub.window[3] {
		t.Fatalf("plan(2) = %+v ok=%v, want shed full snapshot of latest", plan, ok)
	}
	// Fresh subscriber → full snapshot, not a shed.
	plan, ok = hub.planLocked(0)
	if !ok || !plan.full || plan.shed {
		t.Fatalf("plan(0) = %+v ok=%v, want non-shed full snapshot", plan, ok)
	}
	// A broken delta chain (algorithm declined to diff) → full snapshot.
	hub.window[3].deltaPayload = nil
	plan, ok = hub.planLocked(4)
	if !ok || !plan.full {
		t.Fatalf("plan(4) with broken chain = %+v ok=%v, want full snapshot", plan, ok)
	}
}

func TestResolveCursor(t *testing.T) {
	registry := serve.NewRegistry(3)
	hub, err := NewHub(HubConfig{Registry: registry, Algos: testAlgos(t)})
	if err != nil {
		t.Fatal(err)
	}
	checksums := map[uint64]uint64{}
	for v := 1; v <= 5; v++ {
		pub := versionPublished(v)
		checksums[uint64(v)] = core.ChecksumMCs(pub.MCs)
		hub.Publish(pub)
	}
	hub.waitEncoded(t, 5)
	// Window: 3..5. Version 2 resumes (its chain is retained) without a
	// retained checksum; 1 is evicted; wrong checksum diverges.
	cases := []struct {
		hi       hello
		wantSent uint64
		wantOK   bool
	}{
		{hello{}, 0, false},
		{hello{hasCursor: true, version: 4, checksum: checksums[4]}, 4, true},
		{hello{hasCursor: true, version: 2, checksum: checksums[2]}, 2, true},
		{hello{hasCursor: true, version: 1, checksum: checksums[1]}, 0, false},
		{hello{hasCursor: true, version: 4, checksum: 0xbad}, 0, false},
		{hello{hasCursor: true, version: 99, checksum: 1}, 0, false},
	}
	for _, tc := range cases {
		sent, ok := hub.resolveCursor(tc.hi)
		if sent != tc.wantSent || ok != tc.wantOK {
			t.Errorf("resolveCursor(%+v) = (%d, %v), want (%d, %v)",
				tc.hi, sent, ok, tc.wantSent, tc.wantOK)
		}
	}
}

// --- end to end ----------------------------------------------------------

func TestClientFollowsAndServesLocally(t *testing.T) {
	hub, registry, addr := newTestHub(t, 0, 0)
	algos := testAlgos(t)
	hub.Publish(versionPublished(1))
	hub.Publish(versionPublished(2))

	client, err := Dial(testClientConfig(addr, algos))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := client.WaitVersion(ctx, 2); err != nil {
		t.Fatal(err)
	}
	for v := 3; v <= 6; v++ {
		hub.Publish(versionPublished(v))
	}
	if err := client.WaitVersion(ctx, 6); err != nil {
		t.Fatal(err)
	}

	r := client.Replica()
	mv, ok := registry.At(r.Version)
	if !ok {
		t.Fatalf("registry no longer retains replica version %d", r.Version)
	}
	if sum := core.ChecksumMCs(r.MCs); sum != core.ChecksumMCs(mv.MCs) {
		t.Errorf("replica checksum %#x != published %#x", sum, core.ChecksumMCs(mv.MCs))
	}
	if !bytes.Equal(gobMCs(t, r.MCs), gobMCs(t, mv.MCs)) {
		t.Error("replica micro-clusters are not byte-identical to the published snapshot")
	}

	// Local assign answers exactly what the server-side search would.
	point := vector.Vector{9.5, 10.2}
	res, err := client.Assign(point)
	if err != nil {
		t.Fatal(err)
	}
	wantID, wantAbsorb, ok := mv.Search.Nearest(stream.Record{Values: point, Timestamp: mv.Time})
	if !ok {
		t.Fatal("published search snapshot empty")
	}
	if res.ID != wantID || res.Absorbable != wantAbsorb {
		t.Errorf("local Assign = %+v, server says id=%d absorbable=%v", res, wantID, wantAbsorb)
	}
	mcs, v, err := client.Clusters()
	if err != nil || v != r.Version || len(mcs) != len(mv.MCs) {
		t.Errorf("Clusters() = %d mcs @v%d err=%v", len(mcs), v, err)
	}

	// After the initial snapshot everything arrived as deltas.
	st := client.Stats()
	if st.Snapshots != 1 || st.Deltas < 4 {
		t.Errorf("client stats %+v: want exactly 1 snapshot and >= 4 deltas", st)
	}
}

func TestCursorResumeReplaysOnlyDeltas(t *testing.T) {
	hub, _, addr := newTestHub(t, 0, 0)
	algos := testAlgos(t)
	hub.Publish(versionPublished(1))

	client, err := Dial(testClientConfig(addr, algos))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := client.WaitVersion(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// Kill the connection mid-stream; the cursor (1, checksum) stays
	// with the client.
	hub.DisconnectAll()
	hub.Publish(versionPublished(2))
	hub.Publish(versionPublished(3))
	if err := client.WaitVersion(ctx, 3); err != nil {
		t.Fatal(err)
	}

	st := client.Stats()
	if st.Snapshots != 1 {
		t.Errorf("reconnect with a retained cursor fetched %d snapshots, want the initial 1 only", st.Snapshots)
	}
	if st.Connects < 2 {
		t.Errorf("client reports %d connects, want >= 2 (one reconnect)", st.Connects)
	}
	hs := hub.Stats()
	if hs.ResumeCursor < 1 {
		t.Errorf("hub stats %+v: want at least one cursor resume", hs)
	}
	if hs.ResumeSnapshot != 0 {
		t.Errorf("hub stats %+v: retained cursor should not have fallen back to a snapshot", hs)
	}
}

// rawSubscribe opens a bare protocol connection and returns the first
// model frame the hub sends for the given hello.
func rawSubscribe(t *testing.T, addr string, hi hello) modelFrame {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(conn, encodeHello(hi)); err != nil {
		t.Fatal(err)
	}
	for {
		payload, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		dec := wire.NewDec(payload)
		switch kind := dec.Byte(); kind {
		case kindModel:
			f, err := decodeModelPayload(dec)
			if err != nil {
				t.Fatal(err)
			}
			return f
		case kindHeartbeat:
			continue
		default:
			t.Fatalf("unexpected frame kind %d", kind)
		}
	}
}

func TestEvictedCursorFallsBackToChecksummedSnapshot(t *testing.T) {
	hub, registry, addr := newTestHub(t, 3, 0)
	checksums := map[uint64]uint64{}
	for v := 1; v <= 6; v++ {
		pub := versionPublished(v)
		checksums[uint64(v)] = core.ChecksumMCs(pub.MCs)
		hub.Publish(pub)
	}
	// Window is 4..6. A cursor at 5 resumes via the single retained
	// delta; a cursor at 2 was evicted and must get the full snapshot.
	f := rawSubscribe(t, addr, hello{hasCursor: true, version: 5, checksum: checksums[5]})
	if f.delta.FromVersion != 5 || f.version != 6 {
		t.Errorf("retained cursor got %d→%d, want delta 5→6", f.delta.FromVersion, f.version)
	}
	f = rawSubscribe(t, addr, hello{hasCursor: true, version: 2, checksum: checksums[2]})
	if f.delta.FromVersion != 0 || f.version != 6 {
		t.Errorf("evicted cursor got %d→%d, want full snapshot of 6", f.delta.FromVersion, f.version)
	}
	// The fallback snapshot is checksummed and byte-identical to the
	// driver's published model.
	mcs, err := core.ApplyMCDelta(nil, f.delta)
	if err != nil {
		t.Fatalf("apply fallback snapshot: %v", err)
	}
	mv, _ := registry.At(6)
	if !bytes.Equal(gobMCs(t, mcs), gobMCs(t, mv.MCs)) {
		t.Error("fallback snapshot is not byte-identical to the published model")
	}
	hs := hub.Stats()
	if hs.ResumeCursor < 1 || hs.ResumeSnapshot < 1 {
		t.Errorf("hub stats %+v: want both resume paths counted", hs)
	}
}

func TestSlowSubscriberShedsToSnapshotResync(t *testing.T) {
	registry := serve.NewRegistry(16)
	hub, err := NewHub(HubConfig{
		Registry:       registry,
		Algos:          testAlgos(t),
		MaxLag:         2,
		WriteTimeout:   5 * time.Second,
		HeartbeatEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hub.Publish(versionPublished(1))

	// net.Pipe is unbuffered: the hub's writes block until this side
	// reads, so "not reading" models a genuinely slow consumer.
	cli, srv := net.Pipe()
	defer cli.Close()
	hub.wg.Add(1)
	go func() {
		defer hub.wg.Done()
		hub.handle(srv)
	}()
	if err := wire.WriteFrame(cli, encodeHello(hello{})); err != nil {
		t.Fatal(err)
	}
	// readModel reads frames from r until a model frame arrives. Every
	// read is bounded, so a frame the hub never sends fails the test
	// instead of hanging it.
	readModel := func(r io.Reader) modelFrame {
		t.Helper()
		for {
			cli.SetReadDeadline(time.Now().Add(5 * time.Second))
			payload, err := wire.ReadFrame(r, 0)
			if err != nil {
				t.Fatal(err)
			}
			dec := wire.NewDec(payload)
			if dec.Byte() != kindModel {
				continue
			}
			f, err := decodeModelPayload(dec)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}

	// Take the first byte of frame 1 and stop reading: the hub is now
	// parked inside the write of that frame. Publish the burst 2..6 and
	// let the encoder make all of it ready before releasing the frame, so
	// the hub's next planning pass sees the whole lag (5 > MaxLag) at
	// once and sheds to a snapshot resync.
	cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	var first [1]byte
	if _, err := io.ReadFull(cli, first[:]); err != nil {
		t.Fatal(err)
	}
	for v := 2; v <= 6; v++ {
		hub.Publish(versionPublished(v))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		hub.mu.Lock()
		encoded := hub.encodedThrough
		hub.mu.Unlock()
		if encoded >= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("encoder stuck at version %d, want 6", encoded)
		}
		time.Sleep(time.Millisecond)
	}
	if f := readModel(io.MultiReader(bytes.NewReader(first[:]), cli)); f.delta.FromVersion != 0 || f.version != 1 {
		t.Fatalf("first frame %d→%d, want full snapshot of 1", f.delta.FromVersion, f.version)
	}

	sawResync := false
	for i := 0; i < 6 && !sawResync; i++ {
		f := readModel(cli)
		if f.delta.FromVersion == 0 && f.version == 6 {
			sawResync = true
		}
	}
	if !sawResync {
		t.Fatal("slow subscriber never received a full-snapshot resync")
	}
	if hs := hub.Stats(); hs.Sheds < 1 {
		t.Errorf("hub stats %+v: want at least one shed", hs)
	}
}

func TestWriteTimeoutDisconnectsButCursorSurvives(t *testing.T) {
	registry := serve.NewRegistry(16)
	hub, err := NewHub(HubConfig{
		Registry:       registry,
		Algos:          testAlgos(t),
		WriteTimeout:   50 * time.Millisecond,
		HeartbeatEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hub.Publish(versionPublished(1))

	cli, srv := net.Pipe()
	defer cli.Close()
	hub.wg.Add(1)
	go func() {
		defer hub.wg.Done()
		hub.handle(srv)
	}()
	if err := wire.WriteFrame(cli, encodeHello(hello{})); err != nil {
		t.Fatal(err)
	}
	// Never read: the full-snapshot write times out and the hub drops
	// the connection.
	deadline := time.Now().Add(5 * time.Second)
	for hub.Stats().Disconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hub never disconnected the wedged subscriber")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if hs := hub.Stats(); hs.Active != 0 {
		t.Errorf("hub stats %+v: wedged subscriber still counted active", hs)
	}
}

func TestHubCloseSendsGoodbyeAndDrains(t *testing.T) {
	hub, _, addr := newTestHub(t, 0, 0)
	algos := testAlgos(t)
	hub.Publish(versionPublished(1))
	client, err := Dial(testClientConfig(addr, algos))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := client.WaitVersion(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if hs := hub.Stats(); hs.Active != 0 {
		t.Errorf("hub stats %+v after Close: want zero active subscribers", hs)
	}
	// The replica outlives the hub.
	if r := client.Replica(); r == nil || r.Version != 1 {
		t.Errorf("replica lost after hub shutdown: %+v", r)
	}
}

func TestHubMetricsExposition(t *testing.T) {
	hub, _, addr := newTestHub(t, 0, 0)
	algos := testAlgos(t)
	hub.Publish(versionPublished(1))
	client, err := Dial(testClientConfig(addr, algos))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := client.WaitVersion(ctx, 1); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	hub.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"diststream_subscribe_active_subscribers 1",
		"diststream_subscribe_connects_total 1",
		"diststream_subscribe_snapshots_sent_total 1",
		"diststream_subscribe_lag_versions_bucket{le=\"1\"}",
		"diststream_subscribe_lag_versions_count",
		"diststream_subscribe_shed_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRunSubscribersAggregates(t *testing.T) {
	hub, _, addr := newTestHub(t, 0, 0)
	algos := testAlgos(t)
	hub.Publish(versionPublished(1))

	stop := make(chan struct{})
	done := make(chan struct{})
	var res LoadResult
	var loadErr error
	go func() {
		defer close(done)
		res, loadErr = RunSubscribers(LoadConfig{
			Addr:        addr,
			Subscribers: 8,
			Algos:       algos,
			Stop:        stop,
			WarmTimeout: 5 * time.Second,
			Backoff:     backoff.Policy{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond},
		})
	}()
	for v := 2; v <= 5; v++ {
		hub.Publish(versionPublished(v))
		time.Sleep(10 * time.Millisecond)
	}
	// Give the fan-out a moment to drain before stopping the run.
	deadline := time.Now().Add(5 * time.Second)
	for hub.Stats().DeltasSent < 8*4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-done
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	if res.Subscribers != 8 || res.Snapshots != 8 {
		t.Errorf("load result %+v: want 8 subscribers, 8 warm-up snapshots", res)
	}
	if res.MaxVersion != 5 || res.MinVersion != 5 {
		t.Errorf("load result %+v: want every replica at version 5", res)
	}
	if res.ApplyErrors != 0 {
		t.Errorf("load result %+v: want zero apply errors", res)
	}
	if res.VersionsSpanned == 0 || res.BytesPerSubPerBatch <= 0 {
		t.Errorf("load result %+v: want measured per-batch bytes", res)
	}
}

// --- egress budget and drain mode ---------------------------------------

func TestEgressLimiterConvergesToBudget(t *testing.T) {
	// 1 MB/s budget, initial burst of 1 MB: draining the burst is free,
	// after which 1 MB more of demand must take roughly a second.
	l := newEgressLimiter(1 << 20)
	done := make(chan struct{})
	if ok, waited := l.acquire(1<<20, done); !ok || waited {
		t.Fatalf("burst acquire = (%v, %v), want granted without waiting", ok, waited)
	}
	start := time.Now()
	for i := 0; i < 16; i++ {
		if ok, _ := l.acquire(64<<10, done); !ok {
			t.Fatal("acquire refused with done open")
		}
	}
	if elapsed := time.Since(start); elapsed < 500*time.Millisecond {
		t.Errorf("1 MB over a 1 MB/s budget took %v, want ~1s (throttle not engaging)", elapsed)
	}
	// A parked acquirer must give up when done closes.
	close(done)
	if ok, _ := l.acquire(64<<10, done); ok {
		t.Error("acquire granted after done closed while over budget")
	}
}

// TestDrainClientTracksCursor pins drain mode's contract: full protocol
// (hello, resume, counters) with no local model — the header alone
// advances the cursor, reconnects resume via deltas, and local queries
// report the mode honestly.
func TestDrainClientTracksCursor(t *testing.T) {
	hub, _, addr := newTestHub(t, 5, 0)
	for v := 1; v <= 3; v++ {
		hub.Publish(versionPublished(v))
	}
	cfg := testClientConfig(addr, testAlgos(t))
	cfg.Drain = true
	client, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := client.WaitVersion(ctx, 3); err != nil {
		t.Fatal(err)
	}
	r := client.Replica()
	if r.Version != 3 || r.Checksum == 0 {
		t.Errorf("drain replica = %+v, want version 3 with its checksum", r)
	}
	if r.MCs != nil || r.Search != nil {
		t.Error("drain replica materialized a model")
	}
	if _, err := client.Assign(vector.Vector{0, 0}); err == nil {
		t.Error("Assign on a drain client should fail")
	}
	if _, _, err := client.Clusters(); err == nil {
		t.Error("Clusters on a drain client should fail")
	}

	// Kill and publish more: the cursor from the header must resume via
	// deltas, not snapshot fallback.
	hub.DisconnectAll()
	for v := 4; v <= 5; v++ {
		hub.Publish(versionPublished(v))
	}
	if err := client.WaitVersion(ctx, 5); err != nil {
		t.Fatal(err)
	}
	st := client.Stats()
	if st.Snapshots != 1 {
		t.Errorf("Snapshots = %d, want exactly the initial one (resume used deltas)", st.Snapshots)
	}
	if st.Deltas < 2 {
		t.Errorf("Deltas = %d, want >= 2 (versions 4 and 5 replayed)", st.Deltas)
	}
	if st.ApplyErrors != 0 {
		t.Errorf("ApplyErrors = %d", st.ApplyErrors)
	}
	if hs := hub.Stats(); hs.ResumeCursor != 1 {
		t.Errorf("hub ResumeCursor = %d, want 1", hs.ResumeCursor)
	}
}

// TestEgressBudgetShedsInsteadOfStalling: under a starved budget a
// lagging subscriber is shed to a single snapshot rather than being fed
// the whole backlog, so bounded egress buys bounded staleness.
func TestEgressBudgetShedsInsteadOfStalling(t *testing.T) {
	registry := serve.NewRegistry(8)
	hub, err := NewHub(HubConfig{
		Registry: registry,
		Algos:    testAlgos(t),
		MaxLag:   2,
		// Less than one model frame per second of budget: the second
		// frame must wait for refill.
		EgressBytesPerSec: 64,
		WriteTimeout:      30 * time.Second,
		HeartbeatEvery:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hub.Serve(ln)
	defer hub.Close()

	client, err := Dial(testClientConfig(ln.Addr().String(), testAlgos(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const final = 12
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// First the subscriber is brought current (one snapshot, inside the
	// initial burst credit), then a publish burst outruns the budget: the
	// resync snapshot must wait for refill, and the backlog of versions
	// in between is never transmitted.
	hub.Publish(versionPublished(1))
	if err := client.WaitVersion(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for v := 2; v <= final; v++ {
		hub.Publish(versionPublished(v))
	}
	if err := client.WaitVersion(ctx, final); err != nil {
		t.Fatal(err)
	}
	st := client.Stats()
	hs := hub.Stats()
	if hs.ThrottleWaits == 0 {
		t.Error("budget was never hit; the test exercised nothing")
	}
	if st.Deltas+st.Snapshots >= final {
		t.Errorf("client applied %d+%d frames for %d versions; shedding should have skipped some",
			st.Deltas, st.Snapshots, final)
	}
	if r := client.Replica(); r.Version != final {
		t.Errorf("final replica at version %d, want %d", r.Version, final)
	}
}

// TestPublishCoalescingAndGapDeltas pins the coalescing contract: under
// MinPublishInterval the hub retains a sparse subset of the published
// versions, each retained entry's delta spans the gap back to the
// previously retained version, a live replica follows via those gap
// deltas, and cursors naming coalesced-away versions fall back to a
// full snapshot.
func TestPublishCoalescingAndGapDeltas(t *testing.T) {
	registry := serve.NewRegistry(8)
	algos := testAlgos(t)
	hub, err := NewHub(HubConfig{
		Registry:           registry,
		Algos:              algos,
		MinPublishInterval: 40 * time.Millisecond,
		WriteTimeout:       2 * time.Second,
		HeartbeatEvery:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hub.Serve(ln)
	defer hub.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hub.Publish(versionPublished(1))
	client, err := Dial(testClientConfig(ln.Addr().String(), algos))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.WaitVersion(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// A burst inside the interval is coalesced away entirely...
	hub.Publish(versionPublished(2))
	hub.Publish(versionPublished(3))
	if c := hub.Stats().Coalesced; c != 2 {
		t.Fatalf("Coalesced = %d, want 2", c)
	}
	// ...and the next publication past the interval is retained with its
	// delta based on the previously retained version, not on version 3.
	time.Sleep(50 * time.Millisecond)
	hub.Publish(versionPublished(4))
	hub.waitEncoded(t, 4)

	hub.mu.Lock()
	versions := make([]uint64, 0, len(hub.window))
	for _, e := range hub.window {
		versions = append(versions, e.version)
	}
	gapFrom := hub.window[len(hub.window)-1].fromVersion
	gapDelta := hub.window[len(hub.window)-1].deltaPayload
	hub.mu.Unlock()
	if len(versions) != 2 || versions[0] != 1 || versions[1] != 4 {
		t.Fatalf("retained versions = %v, want [1 4]", versions)
	}
	if gapFrom != 1 || gapDelta == nil {
		t.Fatalf("gap entry fromVersion = %d (payload nil=%v), want a delta from 1", gapFrom, gapDelta == nil)
	}

	// The replica crosses the gap via that delta and lands bit-identical
	// to the published version 4 model.
	if err := client.WaitVersion(ctx, 4); err != nil {
		t.Fatal(err)
	}
	r := client.Replica()
	if r.Version != 4 {
		t.Fatalf("replica at version %d, want 4", r.Version)
	}
	if !bytes.Equal(gobMCs(t, r.MCs), gobMCs(t, versionPublished(4).MCs)) {
		t.Error("replica diverged from the published model after a gap delta")
	}
	if s := client.Stats(); s.Deltas < 1 {
		t.Errorf("client stats %+v: the version 1->4 jump should have been a delta", s)
	}

	// Cursor semantics on a sparse window: a coalesced-away version is
	// never resumable; retained versions and the window root's delta base
	// are.
	if sent, ok := hub.resolveCursor(hello{hasCursor: true, version: 2, checksum: 7}); ok {
		t.Errorf("cursor at coalesced version 2 resumed at %d", sent)
	}
	if _, ok := hub.resolveCursor(hello{hasCursor: true, version: 4, checksum: core.ChecksumMCs(versionPublished(4).MCs)}); !ok {
		t.Error("cursor at retained version 4 did not resume")
	}
}
