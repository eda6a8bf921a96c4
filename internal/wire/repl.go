package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Replication kinds.
const (
	// KindReplSubscribe opens a replication stream for one repository (or
	// the catalog stream when RepoID is empty). The server answers with a
	// sequence of KindReplRecords frames echoing the subscribe ID, ending
	// only when the connection drops or a terminal error frame is sent.
	KindReplSubscribe = "repl-subscribe"
	// KindReplRecords carries a batch of replication records (or a terminal
	// error) for one stream.
	KindReplRecords = "repl-records"
	// KindReplAck reports the follower's durable cursor back to the leader.
	// Like KindCancel it is fire-and-forget: the leader never responds, it
	// only records the cursor for observability (replica.Hub.Acked). Nothing
	// waits on acks: the leader trims its stream buffers by size caps alone.
	KindReplAck = "repl-ack"
)

// Replication record kinds: what a ReplRecord payload contains.
const (
	// ReplMutation: one acknowledged WAL record, byte for byte — a kind byte
	// and the UpdateReq / RemoveReq body after its RepoID (core/durable.go);
	// followers apply it through the same function crash recovery uses.
	ReplMutation = 1
	// ReplSnapshot: the one answer to a cursor that cannot be served from
	// the in-memory stream buffer (new follower, trimmed history, or a
	// generation change after a train install or leader restart). On a
	// repository stream it is the full repository snapshot image; on the
	// catalog stream it is the catalog image (internal/replica), which the
	// follower installs: the repositories the leader hosts with their
	// options, and the ids it holds but cannot open. The record's (Gen, Seq)
	// is the exact cursor of the cut: the image contains every event below
	// it and none at or above it.
	ReplSnapshot = 2
	// ReplCreate: a catalog-stream record announcing a repository; Payload
	// is a CreateRepoReq body (the repository and its engine options).
	ReplCreate = 3
	// ReplDrop: a catalog-stream record announcing a repository drop; Payload
	// is a CreateRepoReq body with zero options.
	ReplDrop = 4
)

// ReplSubscribeReq opens one replication stream. Gen/Seq resume a previous
// stream: the leader replays records from that cursor if its buffer still
// holds them and falls back to a ReplSnapshot record otherwise. A zero
// cursor always yields one.
type ReplSubscribeReq struct {
	// RepoID names the repository stream; empty subscribes to the catalog
	// stream (repository create/drop events, after a catalog image when the
	// cursor cannot resume, so a fresh follower discovers the fleet).
	RepoID string
	Gen    uint64
	Seq    uint64
}

// ReplRecord is one element of a replication stream. Records of one
// generation are contiguous and strictly ordered by Seq; a generation change
// (train install or leader restart with a trimmed buffer) always begins with
// a ReplSnapshot record carrying the new cursor.
type ReplRecord struct {
	Gen  uint64
	Seq  uint64
	Kind int
	// UnixNano is the leader's clock when the record entered the stream;
	// followers subtract it from their own clock to measure replication lag.
	UnixNano int64
	// CRC is crc32.ChecksumIEEE(Payload), checked by the follower before
	// apply so a corrupt hop (or buggy relay) can never reach the index.
	CRC     uint32
	Payload []byte
}

// ErrReplCRC reports a replication record whose payload does not match its
// checksum.
var ErrReplCRC = errors.New("wire: replication record CRC mismatch")

// NewReplRecord seals payload into a record with its checksum computed.
func NewReplRecord(gen, seq uint64, kind int, unixNano int64, payload []byte) ReplRecord {
	return ReplRecord{
		Gen:      gen,
		Seq:      seq,
		Kind:     kind,
		UnixNano: unixNano,
		CRC:      crc32.ChecksumIEEE(payload),
		Payload:  payload,
	}
}

// Verify checks the record's payload against its checksum.
func (r *ReplRecord) Verify() error {
	if got := crc32.ChecksumIEEE(r.Payload); got != r.CRC {
		return fmt.Errorf("%w: gen %d seq %d: got %08x want %08x", ErrReplCRC, r.Gen, r.Seq, got, r.CRC)
	}
	return nil
}

// ReplRecords is one KindReplRecords frame: a batch of records for one
// stream, or a terminal error ending the subscription.
type ReplRecords struct {
	Err     string
	Code    int
	RepoID  string
	Records []ReplRecord
}

// ReplAck is the follower's applied cursor for one stream (fire-and-forget).
type ReplAck struct {
	RepoID string
	Gen    uint64
	Seq    uint64
}
