package client

import (
	"context"
	"time"

	"mie/internal/obs"
	"mie/internal/wire"
)

// Forward relays a pre-encoded request envelope through this connection and
// returns the raw response envelope — the primitive the router tier and
// follower→leader request forwarding are built on. Only the envelope's
// per-hop fields are re-stamped (see exchange), so the kind, the origin
// client's bearer token, the trace context, the body bytes and any header
// field added later survive the hop untouched; the body is never decoded.
// The response envelope is returned as-is, including KindError frames — the
// caller relays it to its own peer rather than interpreting it.
func (c *Conn) Forward(ctx context.Context, env *wire.Envelope) (resp *wire.Envelope, err error) {
	start := time.Now()
	resp, _, _, err = c.exchange(ctx, env)
	c.forwardHistogram(env.Kind).Observe(time.Since(start).Seconds())
	if err != nil {
		c.reg.Counter(obs.L("client_forward_errors_total", "kind", env.Kind)).Inc()
	}
	return resp, err
}

// forwardHistogram returns a kind's client_forward_seconds histogram,
// resolving it on the kind's first relay.
func (c *Conn) forwardHistogram(kind string) *obs.Histogram {
	if h, ok := c.forwardSeconds.Load(kind); ok {
		return h.(*obs.Histogram)
	}
	h, _ := c.forwardSeconds.LoadOrStore(kind, c.reg.Histogram(obs.L("client_forward_seconds", "kind", kind)))
	return h.(*obs.Histogram)
}

// Hello probes addr with a bare handshake on a one-shot connection and
// returns the peer's HelloResp — the router's health check, carrying the
// node's replication role and caught-up state. The probe uses its own
// short-lived connection so it can never poison pooled request traffic.
func Hello(addr string, timeout time.Duration) (wire.HelloResp, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	fc, hr, err := DialHello(ctx, addr)
	if err == nil {
		_ = fc.Close()
	}
	return hr, err
}
