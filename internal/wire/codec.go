package wire

import (
	"mie/internal/bin"
	"mie/internal/core"
	"mie/internal/obs"
)

// Body codecs: one appendBody/decodeBody pair per payload type, each a
// straight run of field writes or reads in declaration order (the layout
// table in DESIGN.md §8 is generated from reading this file top to bottom).
// appendBody has a value receiver so a payload may be passed to NewEnvelope
// by value or by pointer; decodeBody fills the value a pointer names and
// leaves failures on the cursor. A repository-scoped request always puts
// its RepoID first: relays route on it without decoding the rest (RepoID).

type bodyEncoder interface{ appendBody(b []byte) []byte }

type bodyDecoder interface{ decodeBody(c *bin.Cursor) }

func (h Hello) appendBody(b []byte) []byte { return bin.AppendVarint(b, int64(h.MaxVersion)) }
func (h *Hello) decodeBody(c *bin.Cursor)  { h.MaxVersion = c.Int() }

func (r CancelReq) appendBody(b []byte) []byte { return bin.AppendUvarint(b, r.ID) }
func (r *CancelReq) decodeBody(c *bin.Cursor)  { r.ID = c.Uvarint() }

func (r CreateRepoReq) appendBody(b []byte) []byte {
	b = bin.AppendString(b, r.RepoID)
	b = bin.AppendVarint(b, int64(r.Opts.VocabWords))
	b = bin.AppendVarint(b, int64(r.Opts.VocabMaxIter))
	b = bin.AppendVarint(b, int64(r.Opts.TreeBranch))
	b = bin.AppendVarint(b, int64(r.Opts.TreeHeight))
	b = bin.AppendVarint(b, r.Opts.TreeSeed)
	b = bin.AppendVarint(b, int64(r.Opts.TrainingSampleCap))
	return bin.AppendVarint(b, int64(r.Opts.FusionCandidates))
}

func (r *CreateRepoReq) decodeBody(c *bin.Cursor) {
	r.RepoID = c.String()
	r.Opts = RepoOptions{
		VocabWords:        c.Int(),
		VocabMaxIter:      c.Int(),
		TreeBranch:        c.Int(),
		TreeHeight:        c.Int(),
		TreeSeed:          c.Varint(),
		TrainingSampleCap: c.Int(),
		FusionCandidates:  c.Int(),
	}
}

func (r TrainReq) appendBody(b []byte) []byte { return bin.AppendString(b, r.RepoID) }
func (r *TrainReq) decodeBody(c *bin.Cursor)  { r.RepoID = c.String() }

func (r TrainJobReq) appendBody(b []byte) []byte {
	return bin.AppendUvarint(bin.AppendString(b, r.RepoID), r.JobID)
}

func (r *TrainJobReq) decodeBody(c *bin.Cursor) {
	r.RepoID = c.String()
	r.JobID = c.Uvarint()
}

func (r UpdateReq) appendBody(b []byte) []byte {
	return r.Update.AppendTo(bin.AppendString(b, r.RepoID))
}

func (r *UpdateReq) decodeBody(c *bin.Cursor) {
	r.RepoID = c.String()
	r.Update.ConsumeFrom(c)
}

func (r RemoveReq) appendBody(b []byte) []byte {
	return bin.AppendString(bin.AppendString(b, r.RepoID), r.ObjectID)
}

func (r *RemoveReq) decodeBody(c *bin.Cursor) {
	r.RepoID = c.String()
	r.ObjectID = c.String()
}

func (r SearchReq) appendBody(b []byte) []byte {
	return r.Query.AppendTo(bin.AppendString(b, r.RepoID))
}

func (r *SearchReq) decodeBody(c *bin.Cursor) {
	r.RepoID = c.String()
	r.Query.ConsumeFrom(c)
}

func (r GetReq) appendBody(b []byte) []byte {
	return bin.AppendString(bin.AppendString(b, r.RepoID), r.ObjectID)
}

func (r *GetReq) decodeBody(c *bin.Cursor) {
	r.RepoID = c.String()
	r.ObjectID = c.String()
}

func (r TraceGetReq) appendBody(b []byte) []byte { return bin.AppendU64(b, r.TraceID) }
func (r *TraceGetReq) decodeBody(c *bin.Cursor)  { r.TraceID = c.U64() }

func (r HelloResp) appendBody(b []byte) []byte {
	b = bin.AppendVarint(b, int64(r.Version))
	b = bin.AppendString(b, r.Role)
	b = bin.AppendBool(b, r.CaughtUp)
	return bin.AppendVarint(b, r.LagNanos)
}

func (r *HelloResp) decodeBody(c *bin.Cursor) {
	r.Version = c.Int()
	r.Role = c.String()
	r.CaughtUp = c.Bool()
	r.LagNanos = c.Varint()
}

func (s Status) appendBody(b []byte) []byte {
	b = bin.AppendString(b, s.Err)
	b = bin.AppendVarint(b, int64(s.Code))
	return bin.AppendVarint(b, s.RetryAfterNanos)
}

func (s *Status) decodeBody(c *bin.Cursor) {
	s.Err, s.Code, s.RetryAfterNanos = c.String(), c.Int(), c.Varint()
}

func (r SearchResp) appendBody(b []byte) []byte {
	b = r.Status.appendBody(b)
	b = bin.AppendUvarint(b, uint64(len(r.Hits)))
	for i := range r.Hits {
		b = r.Hits[i].AppendTo(b)
	}
	return b
}

// minHit is the smallest encoding of a hit: two empty strings, the score,
// an empty ciphertext.
const minHit = 1 + 1 + 8 + 1

func (r *SearchResp) decodeBody(c *bin.Cursor) {
	r.Status.decodeBody(c)
	r.Hits = nil
	if n := c.Count(minHit); n > 0 {
		r.Hits = make([]core.SearchHit, n)
		for i := range r.Hits {
			r.Hits[i].ConsumeFrom(c)
		}
	}
}

func (r GetResp) appendBody(b []byte) []byte {
	b = r.Status.appendBody(b)
	b = bin.AppendBytes(b, r.Ciphertext)
	return bin.AppendString(b, r.Owner)
}

func (r *GetResp) decodeBody(c *bin.Cursor) {
	r.Status.decodeBody(c)
	r.Ciphertext = c.Bytes()
	r.Owner = c.String()
}

func (r TrainJobResp) appendBody(b []byte) []byte {
	b = r.Status.appendBody(b)
	b = bin.AppendUvarint(b, r.Job.JobID)
	b = bin.AppendString(b, string(r.Job.State))
	b = bin.AppendString(b, r.Job.Err)
	return bin.AppendUvarint(b, r.Job.Epoch)
}

func (r *TrainJobResp) decodeBody(c *bin.Cursor) {
	r.Status.decodeBody(c)
	r.Job = core.TrainJobStatus{JobID: c.Uvarint(), State: core.TrainJobState(c.String()), Err: c.String(), Epoch: c.Uvarint()}
}

func (r TraceResp) appendBody(b []byte) []byte {
	b = bin.AppendString(b, r.Err)
	b = bin.AppendU64(b, r.TraceID)
	b = bin.AppendString(b, r.Root)
	b = bin.AppendVarint(b, r.StartUnixNano)
	b = bin.AppendVarint(b, r.DurationNanos)
	b = bin.AppendString(b, r.Reason)
	b = bin.AppendUvarint(b, uint64(len(r.Spans)))
	for _, s := range r.Spans {
		b = bin.AppendU64(b, s.SpanID)
		b = bin.AppendU64(b, s.ParentID)
		b = bin.AppendString(b, s.Name)
		b = bin.AppendVarint(b, s.StartUnixNano)
		b = bin.AppendVarint(b, s.DurationNanos)
		b = bin.AppendString(b, s.Err)
	}
	return b
}

// minSpanRecord is the smallest encoding of a span: two ids, two empty
// strings, two one-byte varints.
const minSpanRecord = 8 + 8 + 1 + 1 + 1 + 1

func (r *TraceResp) decodeBody(c *bin.Cursor) {
	r.Err = c.String()
	r.TraceID = c.U64()
	r.Root = c.String()
	r.StartUnixNano = c.Varint()
	r.DurationNanos = c.Varint()
	r.Reason = c.String()
	r.Spans = nil
	if n := c.Count(minSpanRecord); n > 0 {
		r.Spans = make([]obs.SpanRecord, n)
		for i := range r.Spans {
			r.Spans[i] = obs.SpanRecord{
				SpanID:        c.U64(),
				ParentID:      c.U64(),
				Name:          c.String(),
				StartUnixNano: c.Varint(),
				DurationNanos: c.Varint(),
				Err:           c.String(),
			}
		}
	}
}

func (r ReplSubscribeReq) appendBody(b []byte) []byte {
	return bin.AppendUvarint(bin.AppendUvarint(bin.AppendString(b, r.RepoID), r.Gen), r.Seq)
}

func (r *ReplSubscribeReq) decodeBody(c *bin.Cursor) {
	r.RepoID = c.String()
	r.Gen = c.Uvarint()
	r.Seq = c.Uvarint()
}

func (r ReplAck) appendBody(b []byte) []byte {
	return bin.AppendUvarint(bin.AppendUvarint(bin.AppendString(b, r.RepoID), r.Gen), r.Seq)
}

func (r *ReplAck) decodeBody(c *bin.Cursor) {
	r.RepoID = c.String()
	r.Gen = c.Uvarint()
	r.Seq = c.Uvarint()
}

func (r ReplRecords) appendBody(b []byte) []byte {
	b = bin.AppendString(b, r.Err)
	b = bin.AppendVarint(b, int64(r.Code))
	b = bin.AppendString(b, r.RepoID)
	b = bin.AppendUvarint(b, uint64(len(r.Records)))
	for i := range r.Records {
		rec := &r.Records[i]
		b = bin.AppendUvarint(b, rec.Gen)
		b = bin.AppendUvarint(b, rec.Seq)
		b = bin.AppendVarint(b, int64(rec.Kind))
		b = bin.AppendVarint(b, rec.UnixNano)
		b = bin.AppendU32(b, rec.CRC)
		b = bin.AppendBytes(b, rec.Payload)
	}
	return b
}

// minReplRecord is the smallest encoding of a record: four one-byte
// varints, the checksum, an empty payload.
const minReplRecord = 1 + 1 + 1 + 1 + 4 + 1

// decodeBody leaves each record's Payload a sub-slice of the frame: the
// follower checks it, applies it (which copies what it keeps) and drops it.
func (r *ReplRecords) decodeBody(c *bin.Cursor) {
	r.Err = c.String()
	r.Code = c.Int()
	r.RepoID = c.String()
	r.Records = nil
	if n := c.Count(minReplRecord); n > 0 {
		r.Records = make([]ReplRecord, n)
		for i := range r.Records {
			r.Records[i] = ReplRecord{
				Gen:      c.Uvarint(),
				Seq:      c.Uvarint(),
				Kind:     c.Int(),
				UnixNano: c.Varint(),
				CRC:      c.U32(),
				Payload:  c.Bytes(),
			}
		}
	}
}
