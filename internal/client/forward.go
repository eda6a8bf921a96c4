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
// follower→leader request forwarding are built on. The envelope is copied
// by value and only its per-hop fields are re-stamped — the multiplexing ID
// and the relative deadline — so the kind, the origin client's bearer
// token, the trace context, the body bytes and any header field added
// later survive the hop untouched; the body is never decoded. The response
// envelope is returned as-is, including KindError frames — the caller
// relays it to its own peer rather than interpreting it.
//
// Like roundTrip, transport errors on idempotent requests are retried on a
// fresh connection with capped backoff; mutations surface the error to the
// caller, who alone knows whether re-sending is safe.
func (c *Conn) Forward(ctx context.Context, env *wire.Envelope, idempotent bool) (resp *wire.Envelope, err error) {
	kind := env.Kind
	start := time.Now()
	defer func() {
		c.reg.Histogram(obs.L("client_forward_seconds", "kind", kind)).Observe(time.Since(start).Seconds())
		if err != nil {
			c.reg.Counter(obs.L("client_forward_errors_total", "kind", kind)).Inc()
		}
	}()
	backoff := reconnectBackoffMin
	for attempt := 0; ; attempt++ {
		out := *env
		out.TimeoutNanos = 0
		if dl, ok := ctx.Deadline(); ok {
			timeout := time.Until(dl)
			if timeout <= 0 {
				return nil, context.DeadlineExceeded
			}
			out.TimeoutNanos = int64(timeout)
		}
		var t *transport
		t, err = c.transport()
		if err == nil {
			resp, _, _, err = c.muxExchange(ctx, t, &out)
		}
		if err == nil {
			return resp, nil
		}
		if !idempotent || attempt >= c.retries || !transient(err) || ctx.Err() != nil {
			return nil, err
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff *= 2; backoff > reconnectBackoffMax {
			backoff = reconnectBackoffMax
		}
	}
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
