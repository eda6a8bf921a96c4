package replica

import "mie/internal/client"

// Forwarder relays request envelopes from a follower to the leader; it is
// the server's Forwarder seam. A client connection is all it takes: it dials
// on its first forwarded request, under that request's context, so a
// follower can boot before its leader is reachable, and it redials a
// transport a failure poisoned. Of what a follower forwards, only the
// training status/wait polls are idempotent and so retried on transport
// errors (client.Conn.Forward); mutations surface the error so the origin
// client decides.
type Forwarder = client.Conn

// NewForwarder returns a forwarder targeting the leader at addr.
func NewForwarder(addr string) *Forwarder { return client.NewConn(addr, nil) }
