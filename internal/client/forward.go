package client

import (
	"context"
	"fmt"
	"net"
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
	c.reg.Histogram(obs.L("client_forward_seconds", "kind", env.Kind)).Observe(time.Since(start).Seconds())
	if err != nil {
		c.reg.Counter(obs.L("client_forward_errors_total", "kind", env.Kind)).Inc()
	}
	return resp, err
}

// Hello probes addr with a bare handshake on a one-shot connection and
// returns the peer's HelloResp — the router's health check, carrying the
// node's replication role and caught-up state. The probe uses its own
// short-lived connection so it can never poison pooled request traffic.
func Hello(addr string, timeout time.Duration) (wire.HelloResp, error) {
	tcp, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return wire.HelloResp{}, fmt.Errorf("client: hello dial %s: %w", addr, err)
	}
	defer func() { _ = tcp.Close() }()
	_ = tcp.SetDeadline(time.Now().Add(timeout))
	return Handshake(tcp)
}
