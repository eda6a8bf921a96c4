package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mie/internal/auth"
	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/device"
	"mie/internal/dpe"
	"mie/internal/imaging"
	"mie/internal/leakcheck"
	"mie/internal/wire"
)

var testCtx = context.Background()

func repoKey() core.RepositoryKey {
	var k crypto.Key
	k[0] = 3
	return core.RepositoryKey{Master: k}
}

func dataKey() crypto.Key {
	var k crypto.Key
	k[0] = 4
	return k
}

func newCoreClient(t *testing.T, meter *device.Meter) *core.Client {
	t.Helper()
	c, err := core.NewClient(core.ClientConfig{
		Key:     repoKey(),
		Dense:   dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 256, Threshold: 0.5},
		Pyramid: imaging.PyramidParams{Scales: []int{16}},
		Meter:   meter,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func classImage(class int, instance int64) *imaging.Image {
	base := rand.New(rand.NewSource(int64(class) * 1000))
	noise := rand.New(rand.NewSource(instance + int64(class)*7919 + 1))
	im, err := imaging.NewImage(32, 32)
	if err != nil {
		panic(err) // impossible: fixed valid dimensions
	}
	for i := range im.Pix {
		im.Pix[i] = base.Float64()*0.9 + noise.Float64()*0.1
	}
	return im
}

// memSvc opens an in-memory service via the unified constructor.
func memSvc(t testing.TB) *core.Service {
	t.Helper()
	svc, _, err := core.OpenService(core.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func startServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New("127.0.0.1:0", memSvc(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	})
	return srv
}

func dial(t *testing.T, srv *Server, meter *device.Meter) *client.Conn {
	t.Helper()
	conn, err := client.Dial(srv.Addr(), meter)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// sendFrame writes one frame of the given kind and request id.
func sendFrame(t testing.TB, w io.Writer, kind string, id uint64, payload interface{}) {
	t.Helper()
	env, err := wire.NewEnvelope(kind, "", id, 0, payload)
	if err == nil {
		_, err = wire.WriteEnvelope(w, env)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func smallOpts() wire.RepoOptions {
	return wire.RepoOptions{VocabWords: 20, VocabMaxIter: 10, TreeBranch: 3, TreeHeight: 2, TreeSeed: 1}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("127.0.0.1:0", nil, nil); err == nil {
		t.Error("expected error for nil service")
	}
	if _, err := New("256.0.0.1:99999", memSvc(t), nil); err == nil {
		t.Error("expected error for bad address")
	}
}

func TestEndToEndFlow(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t)
	conn := dial(t, srv, nil)
	cc := newCoreClient(t, nil)

	if err := conn.CreateRepository(testCtx, "photos", smallOpts()); err != nil {
		t.Fatal(err)
	}
	if err := conn.CreateRepository(testCtx, "photos", smallOpts()); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate create err = %v", err)
	}

	// Upload a few multimodal objects.
	topics := []string{"beach sand ocean", "mountain snow peaks", "city night lights"}
	for cls := 0; cls < 3; cls++ {
		for i := 0; i < 4; i++ {
			obj := &core.Object{
				ID:    fmt.Sprintf("net-c%d-%d", cls, i),
				Owner: "alice",
				Text:  topics[cls],
				Image: classImage(cls, int64(i)),
			}
			up, err := cc.PrepareUpdate(obj, dataKey())
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.Update(testCtx, "photos", up); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Train in the cloud.
	if err := conn.Train(testCtx, "photos"); err != nil {
		t.Fatal(err)
	}

	// Search across the network.
	q, err := cc.PrepareQuery(&core.Object{ID: "q", Text: "mountain peaks", Image: classImage(1, 99)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := conn.Search(testCtx, "photos", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("network search found nothing")
	}
	same := 0
	for _, h := range hits {
		if strings.HasPrefix(h.ObjectID, "net-c1-") {
			same++
		}
	}
	if same < 2 {
		t.Errorf("only %d/%d hits from query class: %+v", same, len(hits), hits)
	}

	// Fetch and decrypt one object.
	ct, owner, err := conn.Get(testCtx, "photos", hits[0].ObjectID)
	if err != nil {
		t.Fatal(err)
	}
	if owner != "alice" {
		t.Errorf("owner = %q", owner)
	}
	obj, err := core.DecryptObject(ct, dataKey())
	if err != nil {
		t.Fatal(err)
	}
	if obj.ID != hits[0].ObjectID {
		t.Errorf("decrypted id %q != %q", obj.ID, hits[0].ObjectID)
	}

	// Remove then verify gone.
	if err := conn.Remove(testCtx, "photos", hits[0].ObjectID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.Get(testCtx, "photos", hits[0].ObjectID); err == nil {
		t.Error("removed object still retrievable")
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	srv := startServer(t)
	conn := dial(t, srv, nil)
	if err := conn.Train(testCtx, "missing-repo"); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("train on missing repo: err = %v", err)
	}
	if _, err := conn.Search(testCtx, "missing-repo", &core.Query{K: 3}); err == nil {
		t.Error("search on missing repo should fail")
	}
	if _, _, err := conn.Get(testCtx, "missing-repo", "x"); err == nil {
		t.Error("get on missing repo should fail")
	}
}

func TestConcurrentClientsSharedRepository(t *testing.T) {
	leakcheck.Check(t)
	// The Figure 4 scenario over real sockets: two independent connections
	// (a "mobile" and a "desktop" user) write to the same repository
	// concurrently and both make progress.
	srv := startServer(t)
	connA := dial(t, srv, nil)
	connB := dial(t, srv, nil)
	cc := newCoreClient(t, nil)

	if err := connA.CreateRepository(testCtx, "shared", smallOpts()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	upload := func(conn *client.Conn, user string) {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			obj := &core.Object{
				ID:    fmt.Sprintf("%s-%d", user, i),
				Owner: user,
				Text:  fmt.Sprintf("shared content item %d from %s", i, user),
			}
			up, err := cc.PrepareUpdate(obj, dataKey())
			if err != nil {
				errs <- err
				return
			}
			if err := conn.Update(testCtx, "shared", up); err != nil {
				errs <- err
				return
			}
		}
	}
	wg.Add(2)
	go upload(connA, "mobile")
	go upload(connB, "desktop")
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	q, err := cc.PrepareQuery(&core.Object{ID: "q", Text: "shared content item"}, 40)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := connA.Search(testCtx, "shared", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 40 {
		t.Errorf("got %d objects from both writers, want 40", len(hits))
	}
}

func TestMeterAccountsNetworkBytes(t *testing.T) {
	srv := startServer(t)
	meter := device.NewMeter(device.Mobile)
	conn := dial(t, srv, meter)
	cc := newCoreClient(t, nil)
	if err := conn.CreateRepository(testCtx, "m", smallOpts()); err != nil {
		t.Fatal(err)
	}
	obj := &core.Object{ID: "o", Owner: "u", Text: "metered upload", Image: classImage(0, 0)}
	up, err := cc.PrepareUpdate(obj, dataKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Update(testCtx, "m", up); err != nil {
		t.Fatal(err)
	}
	upB, _ := meter.Bytes(device.Network)
	if upB == 0 {
		t.Error("no upload bytes accounted")
	}
	if meter.RoundTrips(device.Network) != 2 {
		t.Errorf("round trips = %d, want 2 (create + update)", meter.RoundTrips(device.Network))
	}
}

func TestMalformedFrameClosesConnection(t *testing.T) {
	srv := startServer(t)
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Oversized length prefix: server must drop the connection, not crash.
	if _, err := raw.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xB3, 3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := raw.Read(buf); err == nil {
		t.Error("expected connection close after oversized frame")
	}
	// Server still serves new connections.
	conn := dial(t, srv, nil)
	if err := conn.CreateRepository(testCtx, "after", smallOpts()); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownKindGetsErrorResponse(t *testing.T) {
	srv := startServer(t)
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A response kind sent as a request: defined, but not served.
	sendFrame(t, raw, wire.KindSearchResp, 1, wire.SearchResp{})
	env, _, err := wire.ReadFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != wire.KindError {
		t.Errorf("kind = %s, want error", env.Kind)
	}
}

func TestCloseIdempotent(t *testing.T) {
	leakcheck.Check(t)
	srv, err := New("127.0.0.1:0", memSvc(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestAuthorizerGatesRequests(t *testing.T) {
	var masterAuth crypto.Key
	masterAuth[0] = 42
	authority := auth.NewAuthority(masterAuth)
	svc := memSvc(t)
	srv, err := New("127.0.0.1:0", svc, nil, WithAuthorizer(authority.VerifyString))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	conn := dial(t, srv, nil)

	// No token: everything is denied.
	if err := conn.CreateRepository(testCtx, "locked", smallOpts()); err == nil {
		t.Fatal("unauthenticated create succeeded")
	}

	// Valid token admits the holder.
	tok, err := authority.Issue("alice", "locked", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetToken(tok.Encode())
	if err := conn.CreateRepository(testCtx, "locked", smallOpts()); err != nil {
		t.Fatalf("authorized create failed: %v", err)
	}
	cc := newCoreClient(t, nil)
	up, err := cc.PrepareUpdate(&core.Object{ID: "o", Owner: "alice", Text: "private payload"}, dataKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Update(testCtx, "locked", up); err != nil {
		t.Fatalf("authorized update failed: %v", err)
	}

	// A token for a different repository is rejected.
	other, err := authority.Issue("alice", "other-repo", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	conn2 := dial(t, srv, nil)
	conn2.SetToken(other.Encode())
	q, err := cc.PrepareQuery(&core.Object{ID: "q", Text: "private"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Search(testCtx, "locked", q); err == nil ||
		!strings.Contains(err.Error(), "different repository") {
		t.Errorf("cross-repo token: err = %v", err)
	}

	// Revocation takes effect immediately.
	authority.Revoke(tok)
	if err := conn.Train(testCtx, "locked"); err == nil || !strings.Contains(err.Error(), "revoked") {
		t.Errorf("revoked token still admitted: err = %v", err)
	}
}

func TestSearchServedWhileTrainRPCInFlight(t *testing.T) {
	// The layered engine's non-blocking guarantee, observed from outside
	// the process boundary: a Train RPC is held at its install point while
	// a second connection searches, updates, and fetches — all of which
	// must complete before training does.
	srv := startServer(t)
	conn := dial(t, srv, nil)
	cc := newCoreClient(t, nil)

	if err := conn.CreateRepository(testCtx, "live", smallOpts()); err != nil {
		t.Fatal(err)
	}
	topics := []string{"beach sand ocean", "mountain snow peaks", "city night lights"}
	for cls := 0; cls < 3; cls++ {
		for i := 0; i < 3; i++ {
			obj := &core.Object{
				ID:    fmt.Sprintf("live-c%d-%d", cls, i),
				Owner: "alice",
				Text:  topics[cls],
				Image: classImage(cls, int64(i)),
			}
			up, err := cc.PrepareUpdate(obj, dataKey())
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.Update(testCtx, "live", up); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := conn.Train(testCtx, "live"); err != nil {
		t.Fatal(err)
	}

	// Park the NEXT train right before its epoch swap.
	reached := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	core.SetTrainInstallHookForTest(func() {
		once.Do(func() { close(reached) })
		<-gate
	})
	t.Cleanup(func() { core.SetTrainInstallHookForTest(nil) })

	trainDone := make(chan error, 1)
	go func() { trainDone <- conn.Train(testCtx, "live") }()
	<-reached

	// A separate connection's requests are served while the Train RPC is
	// provably still in flight.
	conn2 := dial(t, srv, nil)
	q, err := cc.PrepareQuery(&core.Object{ID: "q", Text: "mountain peaks"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := conn2.Search(testCtx, "live", q)
	if err != nil {
		t.Fatalf("search during train RPC: %v", err)
	}
	if len(hits) == 0 {
		t.Fatal("search during train RPC found nothing")
	}
	up, err := cc.PrepareUpdate(&core.Object{ID: "live-mid", Owner: "alice", Text: "mountain peaks climbing"}, dataKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn2.Update(testCtx, "live", up); err != nil {
		t.Fatalf("update during train RPC: %v", err)
	}
	if _, _, err := conn2.Get(testCtx, "live", hits[0].ObjectID); err != nil {
		t.Fatalf("get during train RPC: %v", err)
	}
	select {
	case err := <-trainDone:
		t.Fatalf("train RPC finished before gate released (err=%v)", err)
	default:
	}

	close(gate)
	if err := <-trainDone; err != nil {
		t.Fatalf("train: %v", err)
	}
	// The mid-train update survived the epoch swap via the install-time re-index.
	hits, err = conn2.Search(testCtx, "live", q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits {
		if h.ObjectID == "live-mid" {
			found = true
		}
	}
	if !found {
		t.Errorf("mid-train update missing after swap: %+v", hits)
	}
}

// TestMismatchedEncodingLengthsLeaveTheServerUp: a co-owner whose Dense-DPE
// output length differs from everyone else's sends image updates and
// queries the engine cannot compare with the stored codes. Before and after
// Train, each is answered with the engine's length error, and the same
// server goes on answering the other co-owners.
func TestMismatchedEncodingLengthsLeaveTheServerUp(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t)
	conn := dial(t, srv, nil)
	cc := newCoreClient(t, nil) // 256-bit image codes
	odd, err := core.NewClient(core.ClientConfig{
		Key:     repoKey(),
		Dense:   dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 128, Threshold: 0.5},
		Pyramid: imaging.PyramidParams{Scales: []int{16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.CreateRepository(testCtx, "shared", smallOpts()); err != nil {
		t.Fatal(err)
	}
	for cls := 0; cls < 3; cls++ {
		for i := 0; i < 3; i++ {
			up, err := cc.PrepareUpdate(&core.Object{ID: fmt.Sprintf("s-c%d-%d", cls, i), Owner: "alice", Image: classImage(cls, int64(i))}, dataKey())
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.Update(testCtx, "shared", up); err != nil {
				t.Fatal(err)
			}
		}
	}
	image := &core.Object{ID: "q", Owner: "bob", Image: classImage(1, 50)}
	good, err := cc.PrepareQuery(image, 3)
	if err != nil {
		t.Fatal(err)
	}
	hostileQuery, err := odd.PrepareQuery(image, 3)
	if err != nil {
		t.Fatal(err)
	}
	hostileUpdate, err := odd.PrepareUpdate(image, dataKey())
	if err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), core.ErrEncodingLength.Error()) {
			t.Fatalf("%s: err = %v, want %v", what, err, core.ErrEncodingLength)
		}
	}
	for _, phase := range []string{"untrained", "trained"} {
		if phase == "trained" {
			if err := conn.Train(testCtx, "shared"); err != nil {
				t.Fatal(err)
			}
		}
		refused(phase+" update", conn.Update(testCtx, "shared", hostileUpdate))
		_, err := conn.Search(testCtx, "shared", hostileQuery)
		refused(phase+" search", err)
		hits, err := conn.Search(testCtx, "shared", good)
		if err != nil || len(hits) == 0 {
			t.Fatalf("%s: the next search got %d hits, err %v", phase, len(hits), err)
		}
	}
}
