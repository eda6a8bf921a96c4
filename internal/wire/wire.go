// Package wire is the MIE network protocol: one length-prefixed binary
// frame format for every request, response and replication message. All
// client-server traffic of Figure 1 flows through it (in deployment, inside
// a TLS tunnel; transport security is orthogonal to the scheme and stdlib
// crypto/tls wraps net.Conn directly).
//
// # Frame
//
// A frame is a 45-byte fixed header, the bearer token, and a per-kind body
// (see codec.go; DESIGN.md §8 has the byte tables):
//
//	off len field
//	  0   4 length   bytes that follow this field, big-endian
//	  4   1 magic    0xB3 — protocol 3; anything else is ErrMalformed
//	  5   1 kind     kind code
//	  6   1 flags    bit 0: trace sampled; other bits must be zero
//	  7   2 authlen  length of the bearer token
//	  9   4 sum      CRC-32C of the kind byte followed by the body
//	 13   8 id       request id; a response echoes its request's
//	 21   8 timeout  remaining time budget in ns (relative, so peers need
//	                 not share a clock); 0 = none
//	 29   8 trace id
//	 37   8 span id
//	 45   n auth, then the body
//
// Requests are multiplexed: each carries a nonzero id, responses echo it
// and may arrive in any order, and a Cancel frame abandons an in-flight id.
// The checksum covers what travels end to end — the kind and the body, whose
// first field is the repository id on every repository-scoped request — and
// leaves out what each hop re-stamps (id, timeout, auth), so a relay
// forwards a frame it read without hashing it again.
//
// # Negotiation
//
// A connection opens with Hello{MaxVersion}; the server answers HelloResp
// carrying ProtocolVersion, or — when the peer cannot speak it — an error
// frame with ErrCodeUnsupportedVersion (AnswerHello). A peer that predates
// this format sends bytes without the magic and is dropped as malformed.
//
// # Ownership
//
// ReadFrame allocates one buffer per frame; it belongs to the Envelope
// returned and is never pooled or reused. Values decoded from an envelope
// may be sub-slices of that buffer — a SearchResp's or GetResp's ciphertexts,
// a ReplRecord's payload — because their receiver consumes and drops them.
// What the engine stores is always copied out at exact size (an UpdateReq's
// ciphertext and codes, and every string), so nothing that outlives a
// request pins its frame. On the write side frames are assembled in pooled
// buffers; one that grew past pooledBufCap is dropped instead of returned,
// so a snapshot-sized frame never stays resident in the pool.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"time"

	"mie/internal/auth"
	"mie/internal/bin"
	"mie/internal/core"
	"mie/internal/obs"
)

// ProtocolVersion is the one protocol version this package speaks.
const ProtocolVersion = 3

// MaxFrameSize bounds a single frame; oversized frames indicate a corrupt
// or malicious peer and abort the connection rather than exhausting memory.
// Only the kinds that carry objects or snapshots may reach it — see the
// per-kind caps in the kinds table.
const MaxFrameSize = 256 << 20

// Frame geometry and the per-kind size classes.
const (
	frameMagic  = 0xB3
	headerLen   = 45 // fixed header, including the 4-byte length
	prefixLen   = 6  // length + magic + kind: enough to refuse a frame
	flagSampled = 1

	// smallFrame caps kinds that carry identifiers and status only.
	smallFrame = 64 << 10
	// queryFrame caps a search request (a few dozen codes and tokens) and a
	// trace response.
	queryFrame = 4 << 20

	// pooledBufCap is the largest write buffer kept in the pool.
	pooledBufCap = 64 << 10
	// bodyChunk is the first allocation for a large incoming body; the
	// buffer then doubles as bytes actually arrive, so a peer cannot make
	// the reader allocate a frame it never sends.
	bodyChunk = 1 << 20
)

// Frame-level errors.
var (
	// ErrFrameTooLarge is returned for frames exceeding their kind's cap.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrMalformed is wrapped around every decode failure: bytes arrived
	// but are not a valid frame or body. Distinguishes a corrupt or hostile
	// peer from a clean disconnect (io.EOF) or a transport failure.
	ErrMalformed = errors.New("wire: malformed frame")
	// ErrUnsupportedVersion reports a peer that cannot speak
	// ProtocolVersion (wire code ErrCodeUnsupportedVersion).
	ErrUnsupportedVersion = errors.New("wire: unsupported protocol version")
)

// IsMalformed reports whether err indicates a peer speaking the protocol
// incorrectly (oversized or undecodable frames) rather than a transport
// error or clean shutdown.
func IsMalformed(err error) bool {
	return errors.Is(err, ErrMalformed) || errors.Is(err, ErrFrameTooLarge)
}

// Message kinds.
const (
	KindCreateRepo = "create-repo"
	KindUpdate     = "update"
	KindRemove     = "remove"
	KindSearch     = "search"
	KindGet        = "get"
	KindAck        = "ack"
	KindSearchResp = "search-resp"
	KindGetResp    = "get-resp"
	KindError      = "error"

	// KindHello opens version negotiation; the server answers
	// KindHelloResp, or KindError when it cannot speak the peer's version.
	KindHello     = "hello"
	KindHelloResp = "hello-resp"
	// KindCancel abandons an in-flight request by ID. It is fire-and-forget:
	// the server never responds to it (the canceled request's response, if
	// any, is dropped by the client's demux).
	KindCancel = "cancel"
	// KindTrainStart launches an asynchronous server-side training job and
	// returns its handle immediately; KindTrainStatus polls it and
	// KindTrainWait blocks (bounded by the request deadline) until the job
	// finishes. All three answer with KindTrainJobResp.
	KindTrainStart   = "train-start"
	KindTrainStatus  = "train-status"
	KindTrainWait    = "train-wait"
	KindTrainJobResp = "train-job-resp"
	// KindTraceGet fetches the server-side span tree of a completed traced
	// request by TraceID (mie-client -trace); answered with KindTraceResp.
	KindTraceGet  = "trace-get"
	KindTraceResp = "trace-resp"
)

// Envelope is one protocol message: a kind tag, an optional bearer
// authorization token (see internal/auth), multiplexing and tracing
// metadata, and the binary encoding of the kind's payload struct.
type Envelope struct {
	Kind string
	Auth string
	// ID correlates a response with its request on the multiplexed
	// connection. Fire-and-forget frames (Cancel, ReplAck) leave it zero.
	ID uint64
	// TimeoutNanos is the remaining time budget of the request at send time
	// (relative, so peers need not share a clock); 0 means no deadline.
	// The server derives the request's context.Context deadline from it.
	TimeoutNanos int64
	// TraceID and SpanID propagate the caller's distributed-tracing context:
	// the trace this request belongs to and the client span the server-side
	// spans should parent under. Zero means untraced. TraceSampled carries
	// the client's head-sampling decision so both sides keep the same
	// traces.
	TraceID      uint64
	SpanID       uint64
	TraceSampled bool
	// Data is the encoded body. On an envelope from ReadFrame it is a
	// sub-slice of the frame's buffer, which the envelope owns.
	Data []byte

	// sum is the body checksum as ReadFrame verified it (zero: not known),
	// which lets a relay write the envelope out again without re-hashing.
	// Whoever changes Kind or Data of an envelope it read must build a new
	// Envelope instead.
	sum uint32
}

// Request payloads.
type (
	// Hello opens a connection.
	Hello struct {
		// MaxVersion is the highest protocol version the client speaks.
		MaxVersion int
	}
	// CancelReq abandons the in-flight request with the given ID.
	CancelReq struct {
		ID uint64
	}
	// CreateRepoReq creates a repository with the given engine parameters.
	CreateRepoReq struct {
		RepoID string
		Opts   RepoOptions
	}
	// RepoOptions are a repository's engine parameters: the engine's own
	// options type, all of which a create request carries.
	RepoOptions = core.RepositoryOptions
	// TrainReq starts (or joins) a server-side training job
	// (KindTrainStart).
	TrainReq struct {
		RepoID string
	}
	// TrainJobReq addresses one training job (KindTrainStatus/KindTrainWait).
	TrainJobReq struct {
		RepoID string
		JobID  uint64
	}
	// UpdateReq uploads an encrypted object and its encodings.
	UpdateReq struct {
		RepoID string
		Update core.Update
	}
	// RemoveReq deletes an object.
	RemoveReq struct {
		RepoID   string
		ObjectID string
	}
	// SearchReq runs a multimodal query.
	SearchReq struct {
		RepoID string
		Query  core.Query
	}
	// GetReq fetches one stored ciphertext.
	GetReq struct {
		RepoID   string
		ObjectID string
	}
	// TraceGetReq fetches the server-side trace of a completed request.
	TraceGetReq struct {
		TraceID uint64
	}
)

// Error codes carried by response frames alongside the human-readable Err
// string, so clients match on a stable code instead of message text.
const (
	// ErrCodeUnspecified is the zero value: an error with no machine-
	// readable classification.
	ErrCodeUnspecified = 0
	// ErrCodeExists: the repository already exists (core.ErrRepoExists).
	ErrCodeExists = 1
	// ErrCodeRepoNotFound: unknown repository (core.ErrRepoNotFound).
	ErrCodeRepoNotFound = 2
	// ErrCodeOverQuota: the tenant exceeded an admission quota
	// (core.ErrOverQuota); the response carries a retry-after hint.
	ErrCodeOverQuota = 3
	// ErrCodeUnauthorized: the bearer token was rejected.
	ErrCodeUnauthorized = 4
	// ErrCodeUnknownObject: unknown object id (core.ErrUnknownObject).
	ErrCodeUnknownObject = 5
	// ErrCodeUnknownJob: unknown training job (core.ErrUnknownJob).
	ErrCodeUnknownJob = 6
	// ErrCodeUnsupportedVersion: the hello named a protocol version this
	// node cannot speak (ErrUnsupportedVersion).
	ErrCodeUnsupportedVersion = 7
)

// errCodes pairs each wire code with the sentinel it encodes: ErrCode reads
// the table forwards, Sentinel backwards.
var errCodes = [...]struct {
	code     int
	sentinel error
}{
	{ErrCodeExists, core.ErrRepoExists},
	{ErrCodeRepoNotFound, core.ErrRepoNotFound},
	{ErrCodeOverQuota, core.ErrOverQuota},
	{ErrCodeUnknownObject, core.ErrUnknownObject},
	{ErrCodeUnknownJob, core.ErrUnknownJob},
	{ErrCodeUnsupportedVersion, ErrUnsupportedVersion},
}

// tokenRejections all travel as ErrCodeUnauthorized, which therefore has no
// sentinel to map back to.
var tokenRejections = [...]error{
	auth.ErrMalformed, auth.ErrBadMAC, auth.ErrExpired, auth.ErrWrongRepo, auth.ErrRevoked,
}

// ErrCode classifies an engine/auth error into its wire code and, for quota
// rejections, extracts the server's retry-after hint. Servers call it when
// building any error-carrying response.
func ErrCode(err error) (code int, retryAfter time.Duration) {
	for _, row := range errCodes {
		if errors.Is(err, row.sentinel) {
			var qe *core.QuotaError
			if row.code == ErrCodeOverQuota && errors.As(err, &qe) {
				retryAfter = qe.RetryAfter
			}
			return row.code, retryAfter
		}
	}
	for _, rejection := range tokenRejections {
		if errors.Is(err, rejection) {
			return ErrCodeUnauthorized, 0
		}
	}
	return ErrCodeUnspecified, 0
}

// Sentinel maps a wire error code back to the engine sentinel it encodes
// (nil for codes without one), so client-side errors unwrap to the same
// values errors.Is matches against locally.
func Sentinel(code int) error {
	for _, row := range errCodes {
		if row.code == code {
			return row.sentinel
		}
	}
	return nil
}

// Response payloads.
type (
	// HelloResp answers a Hello with the version the server selected.
	// The remaining fields describe the node's replication role — the
	// router's health probe reads them to prefer caught-up replicas.
	HelloResp struct {
		Version int
		// Role is "leader", "follower" or empty (replication not enabled).
		Role string
		// CaughtUp reports whether a follower is connected to its leader
		// with no received-but-unapplied records (always true on a leader).
		CaughtUp bool
		// LagNanos is the follower's last observed replication lag.
		LagNanos int64
	}
	// Status is the error triple every response but TraceResp starts with:
	// Err is empty on success, Code classifies the error (ErrCode*
	// constants) and RetryAfterNanos, when positive, hints when a rejected
	// request may be retried.
	Status struct {
		Err             string
		Code            int
		RetryAfterNanos int64
	}
	// Ack acknowledges a mutation; as the body of a KindError frame it
	// carries a failure no typed response could.
	Ack struct {
		Status
	}
	// SearchResp carries ranked hits.
	SearchResp struct {
		Status
		Hits []core.SearchHit
	}
	// GetResp carries one ciphertext and its owner id.
	GetResp struct {
		Status
		Ciphertext []byte
		Owner      string
	}
	// TrainJobResp answers the train-job kinds; Err reports request-level
	// failures (unknown repository/job), Job.Err a failed training run.
	TrainJobResp struct {
		Status
		Job core.TrainJobStatus
	}
	// TraceResp answers KindTraceGet with the server-side span tree. Err is
	// set when the trace is unknown (never kept, or already evicted from the
	// server's ring).
	TraceResp struct {
		Err string
		obs.Trace
	}
)

// FromError fills the status from a request's outcome: cleared for nil,
// otherwise the message, its ErrCode classification and retry-after hint.
func (s *Status) FromError(err error) {
	*s = Status{}
	if err != nil {
		code, retryAfter := ErrCode(err)
		*s = Status{Err: err.Error(), Code: code, RetryAfterNanos: retryAfter.Nanoseconds()}
	}
}

// Failure returns the status when it reports an error and nil on success —
// the read side of FromError, for clients that turn it back into an error.
func (s *Status) Failure() *Status {
	if s.Err == "" {
		return nil
	}
	return s
}

// kindInfo is one row of the kind table: everything the transport tier
// knows about a kind. Server, router, follower and client read it through
// the accessors below instead of keeping kind lists of their own.
type kindInfo struct {
	name string
	// maxFrame caps the frame's length field for this kind; ReadFrame
	// checks it before allocating anything, WriteEnvelope before sending.
	maxFrame uint32
	flags    kindFlags
	// reply names the response kind that answers this request and carries
	// its errors; empty on responses and fire-and-forget frames.
	reply string
}

type kindFlags uint8

const (
	// repoFirst marks a request whose body starts with its repository id.
	repoFirst kindFlags = 1 << iota
	// leader marks a request only the leader may answer: it mutates state or
	// touches the leader-resident training job table. Everything else is a
	// read — serving those from follower replicas is the point of read
	// scale-out.
	leader
	// idempotent marks a request that is safe to send again on a fresh
	// connection after a transport error. A mutation is not: it may have
	// executed, and only the origin caller knows whether re-sending is safe.
	idempotent
)

// kinds maps a kind's wire code (the index) to its row. Codes are part of
// the protocol: append, never renumber. A retired code keeps its empty row
// and is refused like an unknown one: 2 was the blocking "train", which
// train-start plus train-wait replace.
var kinds = [...]kindInfo{
	1:  {KindCreateRepo, smallFrame, repoFirst | leader, KindAck},
	3:  {KindUpdate, MaxFrameSize, repoFirst | leader, KindAck},
	4:  {KindRemove, smallFrame, repoFirst | leader, KindAck},
	5:  {KindSearch, queryFrame, repoFirst | idempotent, KindSearchResp},
	6:  {KindGet, smallFrame, repoFirst | idempotent, KindGetResp},
	7:  {KindAck, smallFrame, 0, ""},
	8:  {KindSearchResp, MaxFrameSize, 0, ""},
	9:  {KindGetResp, MaxFrameSize, 0, ""},
	10: {KindError, smallFrame, 0, ""},
	11: {KindHello, smallFrame, 0, KindHelloResp},
	12: {KindHelloResp, smallFrame, 0, ""},
	13: {KindCancel, smallFrame, 0, ""},
	14: {KindTrainStart, smallFrame, repoFirst | leader, KindTrainJobResp},
	15: {KindTrainStatus, smallFrame, repoFirst | leader | idempotent, KindTrainJobResp},
	16: {KindTrainWait, smallFrame, repoFirst | leader | idempotent, KindTrainJobResp},
	17: {KindTrainJobResp, smallFrame, 0, ""},
	18: {KindTraceGet, smallFrame, idempotent, KindTraceResp},
	19: {KindTraceResp, queryFrame, 0, ""},
	20: {KindReplSubscribe, smallFrame, repoFirst, KindReplRecords},
	21: {KindReplRecords, MaxFrameSize, 0, ""},
	22: {KindReplAck, smallFrame, repoFirst, ""},
}

// row returns a kind's table row; the zero row for a name not in the table.
func row(kind string) kindInfo { return kinds[kindCodes[kind]] }

// LeaderOnly reports whether a request kind must be answered by the leader.
func LeaderOnly(kind string) bool { return row(kind).flags&leader != 0 }

// Idempotent reports whether a request kind may be resent after a transport
// error.
func Idempotent(kind string) bool { return row(kind).flags&idempotent != 0 }

// ReplyKind returns the response kind that answers a request kind and
// carries its errors; empty for a kind that is not answered.
func ReplyKind(kind string) string { return row(kind).reply }

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	// kindCodes inverts kinds; kindSums holds each kind byte's CRC so a
	// frame's sum is one Update over the body.
	kindCodes = make(map[string]byte, len(kinds))
	kindSums  [len(kinds)]uint32
)

func init() {
	for code := 1; code < len(kinds); code++ {
		if kinds[code].name == "" {
			continue // retired
		}
		kindCodes[kinds[code].name] = byte(code)
		kindSums[code] = crc32.Update(0, castagnoli, []byte{byte(code)})
	}
}

// writeBufs recycles frame-assembly buffers (see the package doc's
// ownership rule for the cap).
var writeBufs = sync.Pool{New: func() any { return new([]byte) }}

func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= pooledBufCap {
		*bp = b[:0]
		writeBufs.Put(bp)
	}
}

// NewEnvelope encodes payload into an envelope carrying the given request
// id and time budget. payload may be a value or a pointer; a kind not in
// the table, or a type without a binary form (codec.go), is an error.
func NewEnvelope(kind, authToken string, id uint64, timeout time.Duration, payload interface{}) (*Envelope, error) {
	if _, ok := kindCodes[kind]; !ok {
		return nil, fmt.Errorf("wire: unknown kind %q", kind)
	}
	env := &Envelope{Kind: kind, Auth: authToken, ID: id, TimeoutNanos: int64(timeout)}
	if payload == nil {
		return env, nil
	}
	enc, ok := payload.(bodyEncoder)
	if !ok {
		return nil, fmt.Errorf("wire: encode %s payload: %T has no binary form", kind, payload)
	}
	bp := writeBufs.Get().(*[]byte)
	body := enc.appendBody((*bp)[:0])
	env.Data = append(make([]byte, 0, len(body)), body...)
	putBuf(bp, body)
	return env, nil
}

// WriteEnvelope writes env as one frame with a single Write and returns the
// number of bytes written so callers can account transfer costs.
func WriteEnvelope(w io.Writer, env *Envelope) (int, error) {
	code, ok := kindCodes[env.Kind]
	if !ok {
		return 0, fmt.Errorf("wire: write frame: unknown kind %q", env.Kind)
	}
	if len(env.Auth) > math.MaxUint16 {
		return 0, fmt.Errorf("wire: write %s frame: %d-byte auth token", env.Kind, len(env.Auth))
	}
	total := headerLen + len(env.Auth) + len(env.Data)
	if total-4 > int(kinds[code].maxFrame) {
		return 0, fmt.Errorf("%w: %s frame of %d bytes", ErrFrameTooLarge, env.Kind, total)
	}
	sum := env.sum
	if sum == 0 {
		sum = crc32.Update(kindSums[code], castagnoli, env.Data)
	}
	var flags byte
	if env.TraceSampled {
		flags |= flagSampled
	}
	bp := writeBufs.Get().(*[]byte)
	b := (*bp)[:0]
	if cap(b) < total {
		b = make([]byte, 0, total)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(total-4))
	b = append(b, frameMagic, code, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(len(env.Auth)))
	b = binary.BigEndian.AppendUint32(b, sum)
	b = binary.BigEndian.AppendUint64(b, env.ID)
	b = binary.BigEndian.AppendUint64(b, uint64(env.TimeoutNanos))
	b = binary.BigEndian.AppendUint64(b, env.TraceID)
	b = binary.BigEndian.AppendUint64(b, env.SpanID)
	b = append(b, env.Auth...)
	b = append(b, env.Data...)
	n, err := w.Write(b)
	putBuf(bp, b)
	if err != nil {
		return n, fmt.Errorf("wire: write %s frame: %w", env.Kind, err)
	}
	return n, nil
}

// ReadFrame reads one envelope. It returns the envelope, its size on the
// wire, and any error (io.EOF on clean shutdown). The frame's size is
// checked against its kind's cap as soon as the first prefixLen bytes are
// in, before anything is allocated for it.
func ReadFrame(r io.Reader) (*Envelope, int, error) {
	var hdr [headerLen]byte
	n, err := io.ReadAtLeast(r, hdr[:], prefixLen)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("wire: read header: %w", err)
	}
	length, code := binary.BigEndian.Uint32(hdr[:4]), hdr[5]
	switch {
	case length > MaxFrameSize:
		return nil, 0, ErrFrameTooLarge
	case hdr[4] != frameMagic:
		return nil, 0, fmt.Errorf("%w: magic byte %#x is not protocol %d", ErrMalformed, hdr[4], ProtocolVersion)
	case int(code) >= len(kinds) || kinds[code].name == "":
		return nil, 0, fmt.Errorf("%w: unknown kind code %d", ErrMalformed, code)
	case length > kinds[code].maxFrame:
		return nil, 0, fmt.Errorf("%w: %s frame claims %d bytes", ErrFrameTooLarge, kinds[code].name, length)
	case length < headerLen-4:
		return nil, 0, fmt.Errorf("%w: %d-byte frame is shorter than its header", ErrMalformed, length)
	}
	if n < headerLen {
		if _, err := io.ReadFull(r, hdr[n:]); err != nil {
			return nil, 0, fmt.Errorf("wire: read header: %w", midFrame(err))
		}
	}
	authLen := int(binary.BigEndian.Uint16(hdr[7:9]))
	rest := int(length) - (headerLen - 4)
	switch {
	case hdr[6]&^flagSampled != 0:
		return nil, 0, fmt.Errorf("%w: unknown flag bits %#x", ErrMalformed, hdr[6])
	case authLen > rest:
		return nil, 0, fmt.Errorf("%w: %d-byte auth in a %d-byte frame", ErrMalformed, authLen, length)
	}
	buf, err := readBody(r, rest)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: read frame body: %w", err)
	}
	env := &Envelope{
		Kind:         kinds[code].name,
		Auth:         string(buf[:authLen]),
		ID:           binary.BigEndian.Uint64(hdr[13:21]),
		TimeoutNanos: int64(binary.BigEndian.Uint64(hdr[21:29])),
		TraceID:      binary.BigEndian.Uint64(hdr[29:37]),
		SpanID:       binary.BigEndian.Uint64(hdr[37:45]),
		TraceSampled: hdr[6]&flagSampled != 0,
		sum:          binary.BigEndian.Uint32(hdr[9:13]),
	}
	if rest > authLen {
		env.Data = buf[authLen:]
	}
	if got := crc32.Update(kindSums[code], castagnoli, env.Data); got != env.sum {
		return nil, 0, fmt.Errorf("%w: %s frame checksum %08x, header says %08x", ErrMalformed, env.Kind, got, env.sum)
	}
	return env, 4 + int(length), nil
}

// readBody reads exactly size bytes into a buffer of exactly that size. A
// body larger than bodyChunk is read into a buffer that starts there and
// doubles as the bytes arrive.
func readBody(r io.Reader, size int) ([]byte, error) {
	buf := make([]byte, min(size, bodyChunk))
	for n := 0; ; {
		m, err := io.ReadFull(r, buf[n:])
		if n += m; err != nil {
			return nil, midFrame(err)
		}
		if n == size {
			return buf, nil
		}
		grown := make([]byte, min(size, 2*len(buf)))
		copy(grown, buf)
		buf = grown
	}
}

// midFrame turns the io.EOF of a read that started inside a frame into
// io.ErrUnexpectedEOF: only an EOF between frames is a clean shutdown.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Decode unpacks the envelope payload into v, a pointer to the kind's
// payload struct. Every failure wraps ErrMalformed.
func (e *Envelope) Decode(v interface{}) error {
	dec, ok := v.(bodyDecoder)
	if !ok {
		return fmt.Errorf("%w: decode %s payload: %T has no binary form", ErrMalformed, e.Kind, v)
	}
	c := bin.NewCursor(e.Data)
	dec.decodeBody(c)
	if err := c.Done(); err != nil {
		return fmt.Errorf("%w: decode %s payload into %T: %v", ErrMalformed, e.Kind, v, err)
	}
	return nil
}

// RepoID returns the repository a request addresses — the first field of
// every repository-scoped request body — without decoding the rest, which
// is how the router picks a backend. It is empty for kinds that address no
// repository and for bodies too damaged to tell.
func (e *Envelope) RepoID() string {
	if row(e.Kind).flags&repoFirst == 0 {
		return ""
	}
	c := bin.NewCursor(e.Data)
	id := c.String()
	if c.Err() != nil {
		return ""
	}
	return id
}

// AnswerHello builds a node's reply to a hello frame: status as a HelloResp
// stamped with ProtocolVersion, or — when the peer's hello is unreadable or
// names a lower version — an error frame coded ErrCodeUnsupportedVersion,
// in which case refused says why.
func AnswerHello(hello *Envelope, status HelloResp) (reply *Envelope, refused error) {
	var h Hello
	refused = hello.Decode(&h)
	if refused == nil && h.MaxVersion < ProtocolVersion {
		refused = fmt.Errorf("%w: peer speaks up to %d, this node speaks %d", ErrUnsupportedVersion, h.MaxVersion, ProtocolVersion)
	}
	reply = &Envelope{Kind: KindHelloResp, ID: hello.ID}
	status.Version = ProtocolVersion
	var body bodyEncoder = status
	if refused != nil {
		reply.Kind = KindError
		body = Ack{Status{Err: refused.Error(), Code: ErrCodeUnsupportedVersion}}
	}
	reply.Data = body.appendBody(nil)
	return reply, refused
}
