package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"mie/internal/core"
	"mie/internal/dpe"
	"mie/internal/vec"
)

// writeFrame encodes payload into a frame of the given kind with request id 1.
func writeFrame(t testing.TB, w io.Writer, kind string, payload any) int {
	t.Helper()
	env, err := NewEnvelope(kind, "", 1, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	n, err := WriteEnvelope(w, env)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := SearchReq{RepoID: "r1", Query: core.Query{K: 5}}
	n := writeFrame(t, &buf, KindSearch, req)
	if n != buf.Len() {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	env, rn, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rn != n {
		t.Errorf("read %d bytes, wrote %d", rn, n)
	}
	if env.Kind != KindSearch {
		t.Errorf("kind = %s", env.Kind)
	}
	var got SearchReq
	if err := env.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.RepoID != "r1" || got.Query.K != 5 {
		t.Errorf("decoded %+v", got)
	}
}

func TestFrameCarriesEncodings(t *testing.T) {
	bv := vec.NewBitVec(130)
	bv.Set(0, true)
	bv.Set(129, true)
	tok := dpe.Token{1, 2, 3}
	up := UpdateReq{
		RepoID: "r",
		Update: core.Update{
			ObjectID:       "o1",
			TextTokens:     map[dpe.Token]uint64{tok: 7},
			ImageEncodings: []vec.BitVec{bv},
		},
	}
	var buf bytes.Buffer
	writeFrame(t, &buf, KindUpdate, up)
	env, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got UpdateReq
	if err := env.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Update.TextTokens[tok] != 7 {
		t.Error("token map lost in transit")
	}
	if len(got.Update.ImageEncodings) != 1 || !got.Update.ImageEncodings[0].Equal(bv) {
		t.Error("bit vector lost in transit")
	}
}

func TestEnvelopeCarriesIDAndTimeout(t *testing.T) {
	env, err := NewEnvelope(KindSearch, "tok", 42, 1500*time.Millisecond, SearchReq{RepoID: "r", Query: core.Query{K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	env.TraceID, env.SpanID, env.TraceSampled = 0xdead, 0xbeef, true
	var buf bytes.Buffer
	if _, err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.Auth != "tok" || got.Kind != KindSearch {
		t.Errorf("envelope metadata lost: %+v", got)
	}
	if got.TraceID != 0xdead || got.SpanID != 0xbeef || !got.TraceSampled {
		t.Errorf("trace context lost: %+v", got)
	}
	if d := time.Duration(got.TimeoutNanos); d != 1500*time.Millisecond {
		t.Errorf("timeout = %v", d)
	}
	var req SearchReq
	if err := got.Decode(&req); err != nil {
		t.Fatal(err)
	}
	if req.RepoID != "r" || req.Query.K != 3 {
		t.Errorf("payload lost: %+v", req)
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF", err)
	}
	// Partial header also surfaces as EOF (clean-shutdown semantics).
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); !errors.Is(err, io.EOF) {
		t.Errorf("partial header err = %v, want io.EOF", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(t, &buf, KindAck, Ack{})
	trunc := buf.Bytes()[:buf.Len()-3]
	_, _, err := ReadFrame(bytes.NewReader(trunc))
	if err == nil || IsMalformed(err) || errors.Is(err, io.EOF) {
		t.Errorf("truncated body err = %v, want a transport error", err)
	}
}

func TestReadFrameOversized(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrameSize+1)
	hdr = append(hdr, frameMagic, kindCodes[KindUpdate])
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
	// The writer refuses what the reader would.
	big := &Envelope{Kind: KindAck, Data: make([]byte, smallFrame)}
	if _, err := WriteEnvelope(io.Discard, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized ack write err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameGarbageBody(t *testing.T) {
	// A well-formed header whose body does not match its checksum.
	var buf bytes.Buffer
	writeFrame(t, &buf, KindAck, Ack{Status{Err: "x"}})
	frame := buf.Bytes()
	frame[len(frame)-1] ^= 0xff
	if _, _, err := ReadFrame(bytes.NewReader(frame)); !errors.Is(err, ErrMalformed) {
		t.Errorf("checksum mismatch err = %v, want ErrMalformed", err)
	}
	// Bytes that never were a frame.
	garbage := []byte{0, 0, 0, 8, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}
	if _, _, err := ReadFrame(bytes.NewReader(garbage)); !errors.Is(err, ErrMalformed) {
		t.Errorf("garbage err = %v, want ErrMalformed", err)
	}
	// Header fields out of their domain.
	for name, damage := range map[string]func(f []byte){
		"unknown kind code": func(f []byte) { f[5] = byte(len(kinds)) },
		"kind code zero":    func(f []byte) { f[5] = 0 },
		"unknown flag":      func(f []byte) { f[6] |= 0x80 },
		"auth past frame":   func(f []byte) { f[7] = 0xff },
		"length below header": func(f []byte) {
			binary.BigEndian.PutUint32(f, headerLen-5)
		},
	} {
		buf.Reset()
		writeFrame(t, &buf, KindAck, Ack{})
		damage(buf.Bytes())
		if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// TestCrossVersionEnvelopeCompatibility pins what a peer of an earlier
// protocol sees: there is no compatibility. A protocol-2 hello (a gob
// envelope behind the same 4-byte length) lacks the magic byte and is
// refused as malformed before anything is allocated for it — the connection
// drops, it never hangs waiting for more.
func TestCrossVersionEnvelopeCompatibility(t *testing.T) {
	// The hello frame exactly as the last protocol-2 build wrote it.
	v2Hello := []byte("\x00\x00\x00\xa7q\xff\x81\x03\x01\x01\bEnvelope\x01\xff\x82\x00\x01\b\x01\x04Kind\x01\f\x00\x01\x04Auth\x01\f\x00\x01\x02ID\x01\x06\x00\x01\fTimeoutNanos\x01\x04\x00\x01\aTraceID\x01\x06\x00\x01\x06SpanID\x01\x06\x00\x01\fTraceSampled\x01\x02\x00\x01\x04Data\x01\n\x00\x00\x004\xff\x82\x01\x05hello\a(!\x7f\x03\x01\x01\x05Hello\x01\xff\x80\x00\x01\x01\x01\nMaxVersion\x01\x04\x00\x00\x00\x05\xff\x80\x01\x04\x00\x00")
	_, _, err := ReadFrame(bytes.NewReader(v2Hello))
	if !errors.Is(err, ErrMalformed) {
		t.Errorf("protocol-2 frame: err = %v, want ErrMalformed", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(t, &buf, KindHello, Hello{MaxVersion: ProtocolVersion})
	hello, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reply, refused := AnswerHello(hello, HelloResp{Role: "leader", CaughtUp: true})
	if refused != nil {
		t.Fatal(refused)
	}
	var hr HelloResp
	if err := reply.Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if reply.Kind != KindHelloResp || reply.ID != hello.ID || hr != (HelloResp{Version: ProtocolVersion, Role: "leader", CaughtUp: true}) {
		t.Errorf("reply = %s id %d %+v", reply.Kind, reply.ID, hr)
	}

	// A peer that cannot speak this version gets a typed refusal.
	buf.Reset()
	writeFrame(t, &buf, KindHello, Hello{MaxVersion: ProtocolVersion - 1})
	hello, _, _ = ReadFrame(&buf)
	reply, refused = AnswerHello(hello, HelloResp{})
	if !errors.Is(refused, ErrUnsupportedVersion) || reply.Kind != KindError {
		t.Fatalf("old peer: reply %s, refused %v", reply.Kind, refused)
	}
	var ack Ack
	if err := reply.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Code != ErrCodeUnsupportedVersion || !errors.Is(Sentinel(ack.Code), ErrUnsupportedVersion) {
		t.Errorf("refusal = %+v", ack)
	}
}

func TestRepoIDPeek(t *testing.T) {
	for _, pc := range payloads {
		for _, kind := range pc.kinds {
			v := pc.gen(newGen(5))
			env, err := NewEnvelope(kind, "", 1, 0, v)
			if err != nil {
				t.Fatal(err)
			}
			want := ""
			if row(kind).flags&repoFirst != 0 {
				f := reflect.ValueOf(v).Elem().FieldByName("RepoID")
				if !f.IsValid() {
					t.Fatalf("%s is marked repoFirst but %s has no RepoID", kind, pc.name)
				}
				want = f.String()
			}
			if got := env.RepoID(); got != want {
				t.Errorf("%s: RepoID() = %q, want %q", kind, got, want)
			}
		}
	}
	if got := (&Envelope{Kind: KindSearch, Data: []byte{0xff}}).RepoID(); got != "" {
		t.Errorf("damaged body: RepoID() = %q", got)
	}
}

func TestRepoOptionsToCore(t *testing.T) {
	opts := RepoOptions{VocabWords: 500, VocabMaxIter: 7, TreeBranch: 4, TreeHeight: 2, TreeSeed: 9, TrainingSampleCap: 100, FusionCandidates: 30}
	c := opts.ToCore()
	if c.Vocab.Words != 500 || c.Vocab.MaxIter != 7 || c.Vocab.Seed != 9 {
		t.Errorf("vocab params lost: %+v", c.Vocab)
	}
	if c.Vocab.Tree.Branch != 4 || c.Vocab.Tree.Height != 2 || c.Vocab.Tree.Seed != 9 {
		t.Errorf("tree params lost: %+v", c.Vocab.Tree)
	}
	if c.TrainingSampleCap != 100 || c.FusionCandidates != 30 {
		t.Errorf("caps lost: %+v", c)
	}
}

func TestRepoOptionsFromCoreRoundTrip(t *testing.T) {
	w := RepoOptions{VocabWords: 500, VocabMaxIter: 7, TreeBranch: 4, TreeHeight: 2, TreeSeed: 9, TrainingSampleCap: 100, FusionCandidates: 30}
	if got := FromCore(w.ToCore()); got != w {
		t.Errorf("FromCore(ToCore(w)) = %+v, want %+v", got, w)
	}
}

func TestDecodeWrongType(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(t, &buf, KindAck, Ack{Status{Err: "x"}})
	env, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A type with no binary form is an error on both sides, never a
	// reflective fallback.
	var n int
	if err := env.Decode(&n); !errors.Is(err, ErrMalformed) {
		t.Errorf("decode into *int: %v, want ErrMalformed", err)
	}
	if _, err := NewEnvelope(KindAck, "", 1, 0, struct{ Err string }{"x"}); err == nil {
		t.Error("NewEnvelope accepted a payload with no binary form")
	}
	// A body decoded as the wrong payload is malformed, not a panic.
	var wrong SearchResp
	if err := env.Decode(&wrong); !errors.Is(err, ErrMalformed) {
		t.Errorf("ack body as SearchResp: %v, want ErrMalformed", err)
	}
	if _, err := WriteEnvelope(io.Discard, &Envelope{Kind: "bogus-kind"}); err == nil {
		t.Error("WriteEnvelope accepted an unknown kind")
	}
}
