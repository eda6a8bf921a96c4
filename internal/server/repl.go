// Replication and forwarding seams of the server. The server owns the
// interfaces and internal/replica implements them, so the dependency points
// replica -> server-less wire/core and no import cycle forms: a leader is a
// Server with a ReplicationSource, a follower is a Server with a Forwarder,
// and both are plain servers to their clients.
package server

import (
	"context"
	"errors"

	"mie/internal/wire"
)

// ReplicationSource streams a service's acknowledged mutation records to
// followers — the leader half of WAL-shipping replication (implemented by
// replica.Hub).
type ReplicationSource interface {
	// Subscribe streams records for req's stream through send until ctx is
	// canceled or the stream fails; send's error (the peer went away) also
	// ends it. Subscribe runs on the request's handler goroutine.
	Subscribe(ctx context.Context, req wire.ReplSubscribeReq, send func(*wire.ReplRecords) error) error
	// Ack records a follower's applied cursor (fire-and-forget).
	Ack(ack wire.ReplAck)
}

// Forwarder relays requests this node cannot serve locally to the leader —
// the follower half (implemented by replica.Forwarder). It returns the
// leader's raw response envelope, relayed to the origin client verbatim.
type Forwarder interface {
	Forward(ctx context.Context, env *wire.Envelope) (*wire.Envelope, error)
}

// NodeStatus is what a node reports about its replication role in the
// handshake — wire.HelloResp itself, whose Version wire.AnswerHello stamps
// whatever the callback left there; the router's health probe keys failover
// on Role, CaughtUp and LagNanos.
type NodeStatus = wire.HelloResp

// WithReplication makes the server a replication leader: repl-subscribe
// requests stream records from src and repl-ack frames feed its cursor
// accounting.
func WithReplication(src ReplicationSource) Option {
	return func(s *Server) { s.repl = src }
}

// WithForwarder makes the server a follower for mutations: every request
// wire's kind table marks leader-only is relayed through f to the leader and
// the leader's response relayed back; reads keep being served locally.
func WithForwarder(f Forwarder) Option {
	return func(s *Server) { s.forward = f }
}

// WithNodeStatus installs the status callback whose result rides on every
// HelloResp.
func WithNodeStatus(fn func() NodeStatus) Option {
	return func(s *Server) { s.nodeStatus = fn }
}

// forwardRequest relays one request envelope to the leader and the leader's
// response back to the origin client, preserving the request's Auth (the
// leader authorizes the origin caller, not this node).
func (s *Server) forwardRequest(ctx context.Context, cs *connState, env *wire.Envelope) error {
	resp, err := s.forward.Forward(ctx, env)
	if err != nil {
		s.countOpError(env.Kind, err)
		return s.send(nil, cs, env.ID, wire.KindError, wire.Ack{Status: wire.Status{Err: "forward to leader: " + err.Error()}})
	}
	return s.sendEnv(cs, env.ID, resp)
}

// handleReplSubscribe runs one replication stream on its handler goroutine:
// records flow from the source to the peer as repl-records frames echoing
// the subscribe ID, until the context (connection teardown, Cancel frame)
// or the stream ends. A stream error that was not a teardown is reported to
// the peer as a terminal error frame.
func (s *Server) handleReplSubscribe(ctx context.Context, cs *connState, env *wire.Envelope) error {
	var req wire.ReplSubscribeReq
	err := env.Decode(&req)
	if err == nil && s.repl == nil {
		err = errors.New("server: replication not enabled on this node")
	}
	if err == nil {
		err = s.repl.Subscribe(ctx, req, func(batch *wire.ReplRecords) error {
			return s.send(nil, cs, env.ID, wire.KindReplRecords, batch)
		})
	}
	if err == nil || ctx.Err() != nil || s.isClosed() {
		return nil
	}
	s.countOpError(env.Kind, err)
	code, _ := wire.ErrCode(err)
	return s.send(nil, cs, env.ID, wire.KindReplRecords, &wire.ReplRecords{
		Err:    err.Error(),
		Code:   code,
		RepoID: req.RepoID,
	})
}
