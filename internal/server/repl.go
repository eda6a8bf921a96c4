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
// HelloResp handshake; the router's health probe keys failover on it.
type NodeStatus struct {
	// Role is "leader", "follower" or empty (replication not enabled).
	Role string
	// CaughtUp reports a follower connected to its leader with nothing
	// received but unapplied.
	CaughtUp bool
	// Lag is the follower's last observed replication lag in nanoseconds.
	LagNanos int64
}

// WithReplication makes the server a replication leader: repl-subscribe
// requests stream records from src and repl-ack frames feed its cursor
// accounting.
func WithReplication(src ReplicationSource) Option {
	return func(s *Server) { s.repl = src }
}

// WithForwarder makes the server a follower for mutations: every mutating
// or training request is relayed through f to the leader and the leader's
// response relayed back; reads keep being served locally.
func WithForwarder(f Forwarder) Option {
	return func(s *Server) { s.forward = f }
}

// WithNodeStatus installs the status callback whose result rides on every
// HelloResp.
func WithNodeStatus(fn func() NodeStatus) Option {
	return func(s *Server) { s.nodeStatus = fn }
}

// forwarded reports whether a request kind must be answered by the leader:
// everything that mutates state or touches the leader-resident training job
// table. Reads (Search/Get/TraceGet) stay local — serving them from
// follower replicas is the point of read scale-out.
func forwarded(kind string) bool {
	switch kind {
	case wire.KindCreateRepo, wire.KindTrain, wire.KindTrainStart,
		wire.KindTrainStatus, wire.KindTrainWait, wire.KindUpdate,
		wire.KindRemove:
		return true
	}
	return false
}

// forwardRequest relays one request envelope to the leader and the leader's
// response back to the origin client, preserving the request's Auth (the
// leader authorizes the origin caller, not this node).
func (s *Server) forwardRequest(ctx context.Context, cs *connState, env *wire.Envelope) error {
	resp, err := s.forward.Forward(ctx, env)
	if err != nil {
		s.countOpError(env.Kind, err)
		n, werr := cs.write(env.ID, wire.KindError, wire.Ack{Err: "forward to leader: " + err.Error()})
		s.met.txBytes.Add(int64(n))
		return werr
	}
	n, werr := cs.writeEnv(env.ID, resp)
	s.met.txBytes.Add(int64(n))
	return werr
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
			n, werr := cs.write(env.ID, wire.KindReplRecords, batch)
			s.met.txBytes.Add(int64(n))
			return werr
		})
	}
	if err == nil || ctx.Err() != nil || s.isClosed() {
		return nil
	}
	s.countOpError(env.Kind, err)
	code, _ := wire.ErrCode(err)
	n, werr := cs.write(env.ID, wire.KindReplRecords, &wire.ReplRecords{
		Err:    err.Error(),
		Code:   code,
		RepoID: req.RepoID,
	})
	s.met.txBytes.Add(int64(n))
	return werr
}

// helloResp builds this node's half of the handshake response: its
// replication status, when configured (wire.AnswerHello adds the version).
func (s *Server) helloResp() wire.HelloResp {
	var hr wire.HelloResp
	if s.nodeStatus != nil {
		st := s.nodeStatus()
		hr.Role = st.Role
		hr.CaughtUp = st.CaughtUp
		hr.LagNanos = st.LagNanos
	}
	return hr
}
