package wire

import (
	"bufio"
	"context"
	"net"
	"sync"
	"time"
)

const (
	// readBufSize is a FrameConn's read buffer: 32 KiB fits every frame of
	// the benchmark spine, the 25.6 KB ten-hit search response included.
	readBufSize = 32 << 10
	// tryWriteTimeout bounds a TryWriteFrame: a socket that cannot take a
	// small frame within it belongs to a peer that has stopped reading.
	tryWriteTimeout = 100 * time.Millisecond
)

// FrameConn is a socket that carries frames, in every tier. One goroutine
// reads, through a buffer, so a frame that has arrived costs one read; any
// number of goroutines write, each frame in one Write of its own once it
// holds the write slot — a mutex, as it is held for one Write, that a caller
// whose context can end waits for on a goroutine it may walk away from. A
// Write that fails part-way closes the connection: no frame may follow it.
type FrameConn struct {
	conn  net.Conn
	r     *bufio.Reader
	mu    sync.Mutex    // the write slot
	ended chan struct{} // the slot holder's context ended and its Write was cut short
}

// NewFrameConn wraps a connected socket.
func NewFrameConn(conn net.Conn) *FrameConn {
	return &FrameConn{conn: conn, r: bufio.NewReaderSize(conn, readBufSize), ended: make(chan struct{}, 1)}
}

// ReadFrame reads the next frame (see the package-level ReadFrame). Only
// one goroutine may read.
func (fc *FrameConn) ReadFrame() (*Envelope, int, error) { return ReadFrame(fc.r) }

// WriteFrame writes env as one frame and returns its size on the wire. ctx,
// by its deadline or its cancellation, ends the wait for the write slot and
// the Write itself. A caller whose ctx ended before a byte went out gets
// ctx.Err() unwrapped, the connection intact; one cut mid-frame closed it.
func (fc *FrameConn) WriteFrame(ctx context.Context, env *Envelope) (int, error) {
	if err := fc.lock(ctx); err != nil {
		return 0, err
	}
	defer fc.mu.Unlock()
	if ctx.Done() == nil {
		return fc.write(env)
	}
	stop := context.AfterFunc(ctx, func() {
		_ = fc.conn.SetWriteDeadline(time.Unix(1, 0)) // in the past: the Write ends
		fc.ended <- struct{}{}
	})
	n, err := fc.write(env)
	if !stop() { // lift the past deadline once set, before the next slot holder writes
		<-fc.ended
		_ = fc.conn.SetWriteDeadline(time.Time{})
	}
	if err != nil && n == 0 && ctx.Err() != nil {
		return 0, ctx.Err()
	}
	return n, err
}

// TryWriteFrame writes env, within tryWriteTimeout, only if the write slot
// is free (0 and no error if not): fire-and-forget frames (Cancel) wait
// neither behind another caller's write nor on a peer that stopped reading.
func (fc *FrameConn) TryWriteFrame(env *Envelope) (int, error) {
	if !fc.mu.TryLock() {
		return 0, nil
	}
	defer fc.mu.Unlock()
	_ = fc.conn.SetWriteDeadline(time.Now().Add(tryWriteTimeout))
	defer func() { _ = fc.conn.SetWriteDeadline(time.Time{}) }()
	return fc.write(env)
}

// lock takes the write slot, or returns ctx.Err() once ctx ends first.
func (fc *FrameConn) lock(ctx context.Context) error {
	if ctx.Done() == nil {
		fc.mu.Lock()
		return nil
	}
	if fc.mu.TryLock() {
		return nil
	}
	locked := make(chan struct{})
	go func() {
		fc.mu.Lock()
		select {
		case locked <- struct{}{}: // the waiter owns the slot now
		case <-ctx.Done():
			fc.mu.Unlock()
		}
	}()
	select {
	case <-locked:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// write sends env while the caller holds the slot.
func (fc *FrameConn) write(env *Envelope) (int, error) {
	n, err := WriteEnvelope(fc.conn, env)
	if err != nil && n > 0 {
		_ = fc.conn.Close()
	}
	return n, err
}

// Close closes the socket; a blocked read or write returns an error.
func (fc *FrameConn) Close() error { return fc.conn.Close() }

// Inflight is a serving connection's table of the requests it is working
// on, by request id, so that a Cancel frame naming one can stop it. The
// zero value is empty and ready.
type Inflight struct {
	mu     sync.Mutex
	cancel map[uint64]context.CancelFunc
}

// Track installs request id's cancel function until Untrack.
func (in *Inflight) Track(id uint64, cancel context.CancelFunc) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cancel == nil {
		in.cancel = make(map[uint64]context.CancelFunc)
	}
	in.cancel[id] = cancel
}

// Untrack forgets request id.
func (in *Inflight) Untrack(id uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.cancel, id)
}

// Cancel stops request id if it is in flight, and reports whether it was.
func (in *Inflight) Cancel(id uint64) bool {
	in.mu.Lock()
	cancel, ok := in.cancel[id]
	in.mu.Unlock()
	if ok {
		cancel()
	}
	return ok
}
