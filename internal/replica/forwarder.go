package replica

import (
	"context"
	"sync"

	"mie/internal/client"
	"mie/internal/wire"
)

// Forwarder relays request envelopes from a follower to the leader over a
// lazily-dialed pooled client connection. It implements the server's
// Forwarder seam structurally. The dial is lazy so a follower can boot
// before its leader is reachable; a failed dial is not cached, so the next
// forwarded request re-attempts it.
type Forwarder struct {
	addr string

	mu   sync.Mutex
	conn *client.Conn
}

// NewForwarder returns a forwarder targeting the leader at addr.
func NewForwarder(addr string) *Forwarder {
	return &Forwarder{addr: addr}
}

// Forward relays env to the leader and returns the leader's raw response
// envelope. Of what a follower forwards, only the training status/wait
// polls are idempotent and so retried on transport errors (client.Forward);
// mutations surface the error so the origin client decides.
func (f *Forwarder) Forward(ctx context.Context, env *wire.Envelope) (*wire.Envelope, error) {
	c, err := f.get()
	if err != nil {
		return nil, err
	}
	return c.Forward(ctx, env)
}

func (f *Forwarder) get() (*client.Conn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.conn != nil {
		return f.conn, nil
	}
	c, err := client.Dial(f.addr, nil)
	if err != nil {
		return nil, err
	}
	f.conn = c
	return c, nil
}

// Close tears down the leader connection, if one was dialed.
func (f *Forwarder) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.conn == nil {
		return nil
	}
	err := f.conn.Close()
	f.conn = nil
	return err
}
