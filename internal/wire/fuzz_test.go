package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mie/internal/core"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame decoder. The
// decoder sits directly on the network in front of untrusted peers, so it
// must never panic and must classify every failure as exactly one of: clean
// EOF, oversized frame, malformed envelope, or a generic read error — the
// classification serveConn's counters depend on.
//
// Run the long version with:
//
//	go test -run='^$' -fuzz=FuzzReadFrame -fuzztime=30s ./internal/wire
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: well-formed frames of every request/response kind plus a
	// few interesting corruptions (see also testdata/fuzz/FuzzReadFrame).
	seed := func(kind string, payload interface{}) {
		var buf bytes.Buffer
		writeFrame(f, &buf, kind, payload)
		f.Add(buf.Bytes())
	}
	seed(KindSearch, SearchReq{RepoID: "r", Query: core.Query{K: 10}})
	seed(KindAck, Ack{Status{Err: "boom"}})
	seed(KindGetResp, GetResp{Ciphertext: []byte{1, 2, 3}, Owner: "me"})
	seed(KindCancel, CancelReq{ID: 99})
	seed(KindHello, Hello{MaxVersion: ProtocolVersion})
	seed(KindTrainWait, TrainJobReq{RepoID: "r", JobID: 7})
	var full bytes.Buffer
	env, err := NewEnvelope(KindSearch, "token", 123, 5*time.Second, SearchReq{RepoID: "x"})
	if err != nil {
		f.Fatal(err)
	}
	env.TraceID, env.SpanID, env.TraceSampled = 1, 2, true
	if _, err := WriteEnvelope(&full, env); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 8, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameMagic, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		env, n, err := ReadFrame(r)
		if err != nil {
			if env != nil {
				t.Errorf("non-nil envelope alongside error %v", err)
			}
			// Every error must fall into exactly one classification bucket.
			switch {
			case errors.Is(err, io.EOF):
				if IsMalformed(err) {
					t.Errorf("EOF classified as malformed: %v", err)
				}
			case IsMalformed(err):
			default:
				// Generic read error: only truncation can cause it on an
				// in-memory reader.
				if r.Len() != 0 || len(data) < prefixLen {
					t.Errorf("read error %v with %d of %d bytes unread", err, r.Len(), len(data))
				}
			}
			return
		}
		if n < headerLen || n > len(data) {
			t.Errorf("reported size %d outside [%d, %d]", n, headerLen, len(data))
		}
		// A successfully decoded envelope must re-encode to the bytes it was
		// read from, and its payload decode must not panic regardless of
		// content.
		var buf bytes.Buffer
		if _, werr := WriteEnvelope(&buf, env); werr != nil {
			t.Errorf("re-encode of decoded envelope failed: %v", werr)
		} else if !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Errorf("re-encoded frame differs from the one read\n got %x\nwant %x", buf.Bytes(), data[:n])
		}
		var ack Ack
		_ = env.Decode(&ack)
		var sr SearchReq
		_ = env.Decode(&sr)
		_ = env.RepoID()
	})
}

// FuzzReplRecordDecode targets the replication batch decoder: a
// KindReplRecords envelope whose Data bytes are controlled by whatever sits
// between leader and follower. The decoder must never panic, Verify must
// agree exactly with a CRC recomputation (classifying every mismatch as
// ErrReplCRC), and a verified record must re-seal to the identical checksum.
//
// Run the long version with:
//
//	go test -run='^$' -fuzz=FuzzReplRecordDecode -fuzztime=30s ./internal/wire
func FuzzReplRecordDecode(f *testing.F) {
	for _, batch := range replSeedBatches() {
		f.Add(encodeBody(f, KindReplRecords, batch))
	}
	f.Add([]byte{})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})

	f.Fuzz(func(t *testing.T, data []byte) {
		env := &Envelope{Kind: KindReplRecords, Data: data}
		var batch ReplRecords
		if err := env.Decode(&batch); err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("decode error does not wrap ErrMalformed: %v", err)
			}
			return // rejected before any record is seen
		}
		if again := encodeBody(t, KindReplRecords, batch); !bytes.Equal(again, data) {
			t.Errorf("a batch that decodes must have exactly one encoding\n got %x\nwant %x", again, data)
		}
		for i := range batch.Records {
			rec := &batch.Records[i]
			err := rec.Verify()
			valid := crc32.ChecksumIEEE(rec.Payload) == rec.CRC
			if valid != (err == nil) {
				t.Errorf("record %d: Verify err=%v disagrees with recomputed CRC validity %v", i, err, valid)
			}
			if err != nil && !errors.Is(err, ErrReplCRC) {
				t.Errorf("record %d: Verify returned %v, want ErrReplCRC", i, err)
			}
			if err == nil {
				if re := NewReplRecord(rec.Gen, rec.Seq, rec.Kind, rec.UnixNano, rec.Payload); re.CRC != rec.CRC {
					t.Errorf("record %d: re-seal changed CRC %08x -> %08x", i, rec.CRC, re.CRC)
				}
			}
		}
	})
}

// replSeedBatches are the replication batches both the in-code seeds and the
// checked-in corpus files are made from: a valid two-record batch, one whose
// record fails its CRC, and a terminal error.
func replSeedBatches() []ReplRecords {
	corrupt := NewReplRecord(9, 3, ReplCreate, 0, []byte("catalog event"))
	corrupt.CRC ^= 0xffffffff
	return []ReplRecords{
		{RepoID: "r", Records: []ReplRecord{
			NewReplRecord(1, 1, ReplMutation, 42, []byte("wal record bytes")),
			NewReplRecord(1, 2, ReplSnapshot, 43, []byte("snapshot image")),
		}},
		{RepoID: "", Records: []ReplRecord{corrupt}},
		{Err: "repository gone", Code: ErrCodeRepoNotFound, RepoID: "x"},
	}
}

// FuzzEnvelopeDecode targets the second decode stage: a valid envelope
// whose Data bytes are attacker-controlled, decoded as every payload type.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Add("search", []byte{})
	f.Add("ack", []byte{0xde, 0xad})
	f.Add(KindSearch, encodeBody(f, KindSearch, SearchReq{RepoID: "q"}))

	f.Fuzz(func(t *testing.T, kind string, data []byte) {
		env := &Envelope{Kind: kind, Data: data}
		for _, pc := range payloads {
			v := pc.zero()
			if err := env.Decode(v); err != nil {
				if !errors.Is(err, ErrMalformed) {
					t.Errorf("%s: decode error does not wrap ErrMalformed: %v", pc.name, err)
				}
				continue
			}
			if _, err := NewEnvelope(pc.kinds[0], "", 1, 0, v); err != nil {
				t.Errorf("%s: decoded value does not re-encode: %v", pc.name, err)
			}
		}
		_ = env.RepoID()
	})
}

// writeFuzzCorpus regenerates the checked-in corpus files that are derived
// from the frame layout (TestGoldenFrames -update calls it), so they keep
// exercising the cases their names promise after a layout change.
func writeFuzzCorpus(t *testing.T) {
	var ack bytes.Buffer
	writeFrame(t, &ack, KindAck, Ack{Status{Err: "boom"}})
	oversize := binary.BigEndian.AppendUint32(nil, MaxFrameSize+1)
	oversize = append(oversize, frameMagic, kindCodes[KindUpdate])
	batches := replSeedBatches()
	valid := encodeBody(t, KindReplRecords, batches[0])
	files := map[string][]byte{
		"FuzzReadFrame/truncated-body":         ack.Bytes()[:ack.Len()-2],
		"FuzzReadFrame/oversize-header":        oversize,
		"FuzzReadFrame/garbage-body":           append(ack.Bytes()[:headerLen:headerLen], 0xde, 0xad, 0xbe),
		"FuzzReplRecordDecode/valid-batch":     valid,
		"FuzzReplRecordDecode/truncated-batch": valid[:len(valid)/2],
		"FuzzReplRecordDecode/crc-mismatch":    encodeBody(t, KindReplRecords, batches[1]),
		"FuzzReplRecordDecode/garbage-gob":     {0xde, 0xad, 0xbe, 0xef, 0, 1, 2},
		"FuzzReplRecordDecode/empty":           {},
	}
	for name, data := range files {
		path := filepath.Join("testdata", "fuzz", filepath.FromSlash(name))
		if err := os.WriteFile(path, []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
