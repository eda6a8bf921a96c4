package wire

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// countingConn counts the socket calls made on one end of a net.Pipe, which
// hands a Read at most what one Write sent — the shape of a frame that has
// arrived whole on a TCP socket.
type countingConn struct {
	net.Conn
	reads, writes int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestSocketCallsPerFrame pins the mechanism FrameConn exists for, at the
// frame sizes the benchmark spine moves: a frame costs one Write, and one
// Read through FrameConn while it fits the read buffer, where ReadFrame on
// the bare socket reads the header and the body apart.
func TestSocketCallsPerFrame(t *testing.T) {
	shapes := []struct {
		name string
		kind string
		size int // bytes on the wire
	}{
		{"fanout-small search request", KindSearch, 421},
		{"fanout-small search response", KindSearchResp, 3270},
		{"search-large search request", KindSearch, 7600},
		{"search-large search response", KindSearchResp, 25600},
		{"ingest-durable update", KindUpdate, 10000},
	}
	const frames = 8
	for _, shape := range shapes {
		for _, framed := range []bool{true, false} {
			a, b := net.Pipe()
			src, dst := &countingConn{Conn: a}, &countingConn{Conn: b}
			sent := make(chan error, 1)
			go func() {
				w := NewFrameConn(src)
				for i := 0; i < frames; i++ {
					env := &Envelope{Kind: shape.kind, ID: uint64(i + 1), Data: make([]byte, shape.size-headerLen)}
					if _, err := w.WriteFrame(context.Background(), env); err != nil {
						sent <- err
						return
					}
				}
				sent <- nil
			}()
			fc := NewFrameConn(dst)
			for i := 0; i < frames; i++ {
				var env *Envelope
				var n int
				var err error
				if framed {
					env, n, err = fc.ReadFrame()
				} else {
					env, n, err = ReadFrame(dst)
				}
				if err != nil || n != shape.size || env.ID != uint64(i+1) {
					t.Fatalf("%s: frame %d: %d bytes, id %v, %v", shape.name, i, n, env, err)
				}
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			_ = a.Close()
			_ = b.Close()
			wantReads := 2
			if framed {
				wantReads = 1
			}
			if dst.reads != wantReads*frames || src.writes != frames {
				t.Errorf("%s (FrameConn reads %v): %d reads and %d writes for %d frames, want %d and %d",
					shape.name, framed, dst.reads, src.writes, frames, wantReads*frames, frames)
			}
		}
	}
}

// stalledPipe is a FrameConn whose peer reads nothing until told to: a
// Write on it blocks, as on a socket whose send buffer is full. drain makes
// the peer read the next frame.
func stalledPipe(t *testing.T) (fc *FrameConn, drain func() error) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return NewFrameConn(a), func() error {
		_, _, err := ReadFrame(b)
		return err
	}
}

// writeAfterStall checks that fc, whose last Write was cut short before a
// byte went out, still carries the next frame whole.
func writeAfterStall(t *testing.T, fc *FrameConn, drain func() error) {
	t.Helper()
	read := make(chan error, 1)
	go func() { read <- drain() }()
	if _, err := fc.WriteFrame(context.Background(), &Envelope{Kind: KindSearch, ID: 2}); err != nil {
		t.Fatalf("write after the stall: %v", err)
	}
	if err := <-read; err != nil {
		t.Fatalf("read after the stall: %v", err)
	}
}

// writeOutcome is what a write returned, handed back from the goroutine that
// made it.
type writeOutcome struct {
	n   int
	err error
}

// TestWriteFrameEndsWithContext: cancelling the context, with no deadline
// on it, ends a Write the peer does not drain; nothing was sent, so the
// caller gets context.Canceled and the connection carries the next frame.
func TestWriteFrameEndsWithContext(t *testing.T) {
	fc, drain := stalledPipe(t)
	ctx, cancel := context.WithCancel(context.Background())
	wrote := make(chan writeOutcome, 1)
	go func() {
		n, err := fc.WriteFrame(ctx, &Envelope{Kind: KindSearch, ID: 1})
		wrote <- writeOutcome{n, err}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case r := <-wrote:
		if r.n != 0 || !errors.Is(r.err, context.Canceled) {
			t.Fatalf("WriteFrame on a stalled peer = %d, %v; want 0, context.Canceled", r.n, r.err)
		}
	case <-time.After(time.Second):
		_ = fc.Close()
		<-wrote
		t.Fatal("WriteFrame on a stalled peer still blocked 1s after its context was cancelled")
	}
	writeAfterStall(t, fc, drain)
}

// TestTryWriteFrameIsBounded: a fire-and-forget frame to a peer that has
// stopped reading gives up after tryWriteTimeout, and the connection
// carries the next frame.
func TestTryWriteFrameIsBounded(t *testing.T) {
	fc, drain := stalledPipe(t)
	wrote := make(chan writeOutcome, 1)
	go func() {
		n, err := fc.TryWriteFrame(&Envelope{Kind: KindCancel, ID: 1})
		wrote <- writeOutcome{n, err}
	}()
	select {
	case r := <-wrote:
		if r.n != 0 || !errors.Is(r.err, os.ErrDeadlineExceeded) {
			t.Fatalf("TryWriteFrame on a stalled peer = %d, %v; want 0, os.ErrDeadlineExceeded", r.n, r.err)
		}
	case <-time.After(tryWriteTimeout + time.Second):
		_ = fc.Close()
		<-wrote
		t.Fatalf("TryWriteFrame on a stalled peer still blocked after %v", tryWriteTimeout+time.Second)
	}
	writeAfterStall(t, fc, drain)
}
