package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/dataset"
	"mie/internal/dpe"
	"mie/internal/leakcheck"
	"mie/internal/obs"
	"mie/internal/server"
	"mie/internal/wire"
)

// Callers write their own frames: these tests pin what that must keep —
// frames never interleave, a caller never waits past its deadline for
// another caller's write, and a connection that breaks mid-write releases
// every caller.

// stalledReader makes the peer's end of a fake-server connection slow to
// drain: a small receive buffer leaves a large frame stuck in the client's
// Write once the peer stops reading.
func stalledReader(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Error(err)
	}
}

// readHeader reads one frame's fixed header and leaves the rest unread.
func readHeader(conn net.Conn) error {
	var hdr [45]byte
	_, err := conn.Read(hdr[:])
	return err
}

func TestQueuedCallHonoursDeadline(t *testing.T) {
	leakcheck.Check(t)
	// The peer answers hello, takes the first bytes of a 16 MiB update and
	// stops reading: the update is stuck in Write. A search queued behind it
	// must still return when its own deadline passes.
	updating := make(chan struct{})
	release := make(chan struct{})
	addr := fakeMuxServer(t, func(conn net.Conn) {
		stalledReader(t, conn)
		if readHeader(conn) == nil {
			close(updating)
		}
		<-release
	})
	defer close(release)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	updated := make(chan error, 1)
	go func() {
		updated <- c.Update(bg, "r", &core.Update{ObjectID: "big", Ciphertext: make([]byte, 16<<20)})
	}()
	select {
	case <-updating:
	case <-time.After(5 * time.Second):
		t.Fatal("the update never reached the peer")
	}
	const deadline = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(bg, deadline)
	defer cancel()
	searched := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := c.Search(ctx, "r", &core.Query{K: 1})
		searched <- err
	}()
	pending := []chan error{updated}
	select {
	case err := <-searched:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("queued search returned %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(deadline + time.Second):
		t.Errorf("queued search still blocked %v after its %v deadline", time.Since(start).Round(time.Millisecond), deadline)
		pending = append(pending, searched)
	}
	// Close tears the transport down: the stuck update returns too.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ch := range pending {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("a call outlived Close")
		}
	}
}

func TestCancelToStalledPeerReturnsAtDeadline(t *testing.T) {
	leakcheck.Check(t)
	// The peer reads a search whole and then stops reading: the search's
	// write slot is free, but the Cancel frame the caller owes at its
	// deadline cannot go out (a net.Pipe takes no byte nobody reads, as a
	// socket whose buffers are full). The caller must return at its deadline
	// all the same, and a Cancel that sent nothing leaves the connection up.
	cli, peer := net.Pipe()
	defer peer.Close()
	arrived := make(chan error, 1)
	go func() {
		_, _, err := wire.ReadFrame(peer)
		arrived <- err
	}()
	reg := obs.NewRegistry()
	c := NewConn("pipe", nil, WithObservability(reg))
	c.tr = c.newTransport(wire.NewFrameConn(cli))
	const deadline = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(bg, deadline)
	defer cancel()
	searched := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := c.Search(ctx, "r", &core.Query{K: 1})
		searched <- err
	}()
	if err := <-arrived; err != nil {
		t.Fatalf("the search never reached the peer: %v", err)
	}
	select {
	case err := <-searched:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("search returned %v, want context.DeadlineExceeded", err)
		}
		if err := c.tr.failure(); err != nil {
			t.Errorf("an unsent Cancel poisoned the connection: %v", err)
		}
		if got := reg.Counter("client_cancel_frames_total").Value(); got != 0 {
			t.Errorf("client_cancel_frames_total = %d for a Cancel the peer never took", got)
		}
	case <-time.After(deadline + time.Second):
		t.Errorf("search still blocked %v after its %v deadline", time.Since(start).Round(time.Millisecond), deadline)
		_ = c.Close()
		<-searched
	}
	_ = c.Close()
}

func TestWriteFailureReleasesEveryCaller(t *testing.T) {
	leakcheck.Check(t)
	// The peer reads four small updates without answering them, takes the
	// first bytes of a large one and resets the connection: four calls are
	// awaiting replies, one is mid-write and three wait to write. Every one
	// must fail promptly, and the next call redials exactly once.
	const small, large = 4, 4
	read := make(chan struct{})
	midWrite := make(chan struct{})
	addr := fakeConnServer(t, func(n int32, conn net.Conn) {
		if n > 1 {
			echoServe(conn, wire.KindAck, wire.Ack{})
			return
		}
		stalledReader(t, conn)
		for i := 0; i < small; i++ {
			if _, _, err := wire.ReadFrame(conn); err != nil {
				return
			}
		}
		close(read)
		<-midWrite
		if readHeader(conn) != nil {
			return
		}
		_ = conn.(*net.TCPConn).SetLinger(0) // Close sends a reset
	})
	reg := obs.NewRegistry()
	c, err := Dial(addr, nil, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errs := make(chan error, small+large)
	update := func(size int) {
		errs <- c.Update(bg, "r", &core.Update{ObjectID: "o", Ciphertext: make([]byte, size)})
	}
	for i := 0; i < small; i++ {
		go update(64)
	}
	select {
	case <-read:
	case <-time.After(5 * time.Second):
		t.Fatal("the peer never read the small updates")
	}
	for i := 0; i < large; i++ {
		go update(6 << 20)
	}
	// Reset only once every call holds the first connection: a call that
	// reached it later would redial instead.
	for deadline := time.Now().Add(5 * time.Second); inflight(c) < small+large; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls reached the connection", inflight(c), small+large)
		}
	}
	close(midWrite)
	timeout := time.After(2 * time.Second)
	for i := 0; i < small+large; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("a call on the reset connection succeeded")
			}
		case <-timeout:
			t.Fatalf("%d of %d calls still blocked 2s after the reset", small+large-i, small+large)
		}
	}
	if err := c.Update(bg, "r", &core.Update{ObjectID: "o"}); err != nil {
		t.Fatalf("update after the reset: %v", err)
	}
	if got := reg.Counter("client_reconnects_total").Value(); got != 1 {
		t.Errorf("client_reconnects_total = %d, want 1", got)
	}
}

// inflight counts the calls registered on c's current connection.
func inflight(c *Conn) int {
	c.mu.Lock()
	t := c.tr
	c.mu.Unlock()
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.calls)
}

func TestConcurrentWritersNeverInterleave(t *testing.T) {
	leakcheck.Check(t)
	// Sixteen goroutines share one connection to a real server, each sending
	// updates of one object whose frames take many socket writes to drain.
	// One frame spliced into another would fail the frame checksum, lose an
	// acknowledgement or store the wrong bytes.
	const writers, updates, size = 16, 20, 1<<20 + 1
	svc, _, err := core.OpenService(core.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New("127.0.0.1:0", svc, nil, server.WithObservability(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	c, err := Dial(srv.Addr(), nil, WithObservability(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateRepository(bg, "r", wire.RepoOptions{}); err != nil {
		t.Fatal(err)
	}
	content := func(w, i int) []byte {
		b := bytes.Repeat([]byte{byte(w), byte(i)}, size/2+1)
		return b[:size]
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%02d", w)
			for i := 0; i < updates; i++ {
				up := &core.Update{ObjectID: id, Owner: "o", Ciphertext: content(w, i), TextTokens: map[dpe.Token]uint64{{byte(w)}: 1}}
				if err := c.Update(bg, "r", up); err != nil {
					errs <- fmt.Errorf("%s update %d: %w", id, i, err)
					return
				}
			}
			got, _, err := c.Get(bg, "r", id)
			if err != nil || !bytes.Equal(got, content(w, updates-1)) {
				errs <- fmt.Errorf("%s reads back %d bytes, not its last update's %d: %v", id, len(got), size, err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkSearchRoundTrip is one hop of fanout-small's search: a
// pre-encoded text query against a trained 50-document repository, client
// to server over loopback TCP — frame writes, reads and the demux included.
func BenchmarkSearchRoundTrip(b *testing.B) {
	svc, _, err := core.OpenService(core.ServiceOptions{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New("127.0.0.1:0", svc, nil, server.WithObservability(obs.NewRegistry()))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	c, err := Dial(srv.Addr(), nil, WithObservability(obs.NewRegistry()))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cc, err := core.NewClient(core.ClientConfig{Key: core.RepositoryKey{Master: crypto.Key{1}}})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.CreateRepository(bg, "r", wire.RepoOptions{}); err != nil {
		b.Fatal(err)
	}
	docs := dataset.SyntheticText(dataset.SyntheticTextParams{N: 50, VocabSize: 5000, Seed: 1})
	for _, obj := range docs {
		up, err := cc.PrepareUpdate(obj, crypto.Key{2})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Update(bg, "r", up); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Train(bg, "r"); err != nil {
		b.Fatal(err)
	}
	q, err := cc.PrepareQuery(docs[0], 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits, err := c.Search(bg, "r", q)
		if err != nil || len(hits) == 0 {
			b.Fatalf("search: %d hits, %v", len(hits), err)
		}
	}
}
