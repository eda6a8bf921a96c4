package wire

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/v3 golden frames and the derived fuzz corpus files")

// TestPayloadTableIsComplete is the fail-by-default gate of the table in
// payloads_test.go: a struct type added to this package must be given a row
// (and with it round-trip, determinism, corruption and golden coverage) or be
// listed in notPayloads with a reason; a kind added to the kinds table must
// be carried by some row.
func TestPayloadTableIsComplete(t *testing.T) {
	inTable := map[string]bool{}
	carried := map[string]string{}
	for _, pc := range payloads {
		if inTable[pc.name] {
			t.Errorf("payload %s has two rows", pc.name)
		}
		inTable[pc.name] = true
		for _, kind := range pc.kinds {
			if prev, dup := carried[kind]; dup {
				t.Errorf("kind %s is carried by both %s and %s", kind, prev, pc.name)
			}
			carried[kind] = pc.name
		}
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	declared := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if _, isStruct := ts.Type.(*ast.StructType); isStruct {
				declared++
				if name := ts.Name.Name; !inTable[name] && !notPayloads[name] {
					t.Errorf("%s: struct %s is neither in the payloads table nor in notPayloads", file, name)
				}
			}
			return true
		})
	}
	if declared < len(payloads) {
		t.Fatalf("found %d struct declarations for %d table rows: the source scan is broken", declared, len(payloads))
	}
	for code := 1; code < len(kinds); code++ {
		if kinds[code].name != "" && carried[kinds[code].name] == "" {
			t.Errorf("kind %s (code %d) has no row in the payloads table", kinds[code].name, code)
		}
	}
}

// TestKindRows holds the kinds table to the rules the transport tier reads
// off it: what answers what, who may answer, and what may be resent.
func TestKindRows(t *testing.T) {
	wantIdempotent := map[string]bool{
		KindSearch: true, KindGet: true, KindTraceGet: true, KindTrainStatus: true, KindTrainWait: true,
	}
	jobPolls := map[string]bool{KindTrainStatus: true, KindTrainWait: true}
	if len(kinds) != 23 {
		t.Errorf("the kinds table has %d codes, want 22 with code 2 retired (codes are append-only; update this test with the new row)", len(kinds)-1)
	}
	for code := 1; code < len(kinds); code++ {
		k := kinds[code]
		if got := Idempotent(k.name); got != wantIdempotent[k.name] {
			t.Errorf("%s: Idempotent = %v, want %v", k.name, got, wantIdempotent[k.name])
		}
		if LeaderOnly(k.name) && Idempotent(k.name) && !jobPolls[k.name] {
			t.Errorf("%s: a leader-only request that may be resent blind", k.name)
		}
		if k.reply == "" {
			// A response or a fire-and-forget frame: nothing routes on it.
			if LeaderOnly(k.name) || Idempotent(k.name) {
				t.Errorf("%s: routing flags on a kind that is not answered", k.name)
			}
			continue
		}
		reply, known := kindCodes[k.reply]
		if !known {
			t.Errorf("%s: reply %q is not a kind", k.name, k.reply)
		} else if r := kinds[reply]; r.reply != "" || r.flags != 0 {
			t.Errorf("%s: reply %s is itself a request row", k.name, k.reply)
		}
		if ReplyKind(k.name) != k.reply {
			t.Errorf("%s: ReplyKind = %q, want %q", k.name, ReplyKind(k.name), k.reply)
		}
	}
	if LeaderOnly("no-such-kind") || Idempotent("no-such-kind") || ReplyKind("no-such-kind") != "" {
		t.Error("an unknown kind reads as a routable request")
	}

	// Every repoFirst kind's golden frame yields the RepoID it was made
	// from, peeked without decoding the body; no other frame yields one.
	for _, pc := range payloads {
		for i, kind := range pc.kinds {
			golden, err := os.ReadFile(filepath.Join("testdata", "v3", kind+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			env, _, err := ReadFrame(bytes.NewReader(golden))
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			want := ""
			if f := reflect.ValueOf(pc.gen(goldenGen(kind, i))).Elem().FieldByName("RepoID"); row(kind).flags&repoFirst != 0 {
				if !f.IsValid() {
					t.Fatalf("%s is marked repoFirst but %s has no RepoID", kind, pc.name)
				}
				want = f.String()
			}
			if got := env.RepoID(); got != want {
				t.Errorf("%s: golden frame RepoID() = %q, want %q", kind, got, want)
			}
		}
	}
}

// encodeBody encodes a payload the way NewEnvelope does.
func encodeBody(t testing.TB, kind string, v any) []byte {
	t.Helper()
	env, err := NewEnvelope(kind, "", 1, 0, v)
	if err != nil {
		t.Fatal(err)
	}
	return env.Data
}

func (pc payloadCase) same(got, want any) bool {
	if pc.equal != nil {
		return pc.equal(got, want)
	}
	return reflect.DeepEqual(got, want)
}

// TestPayloadsRoundTrip: every payload type, over seeded awkward values,
// decodes to what was encoded (scores bit for bit), has exactly one
// encoding — the same value encoded twice, by pointer or by value, with nil
// or with empty collections, gives identical bytes — and survives the frame.
func TestPayloadsRoundTrip(t *testing.T) {
	for _, pc := range payloads {
		t.Run(pc.name, func(t *testing.T) {
			for seed := int64(0); seed < 200; seed++ {
				want := pc.gen(newGen(seed))
				kind := pc.kinds[int(seed)%len(pc.kinds)]
				body := encodeBody(t, kind, want)
				if again := encodeBody(t, kind, want); !bytes.Equal(body, again) {
					t.Fatalf("seed %d: encoding the same value twice gave different bytes", seed)
				}
				if byValue := encodeBody(t, kind, reflect.ValueOf(want).Elem().Interface()); !bytes.Equal(body, byValue) {
					t.Fatalf("seed %d: passing the payload by value changed its bytes", seed)
				}
				emptyForm := newGen(seed)
				emptyForm.emptyNotNil = true
				if alt := encodeBody(t, kind, pc.gen(emptyForm)); !bytes.Equal(body, alt) {
					t.Fatalf("seed %d: empty and nil collections encode differently", seed)
				}

				var frame bytes.Buffer
				env := &Envelope{Kind: kind, Data: body, ID: uint64(seed) + 1}
				if _, err := WriteEnvelope(&frame, env); err != nil {
					t.Fatal(err)
				}
				read, _, err := ReadFrame(&frame)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				got := pc.zero()
				if err := read.Decode(got); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !pc.same(got, want) {
					t.Fatalf("seed %d: round trip changed the value\n got %+v\nwant %+v", seed, got, want)
				}
			}
		})
	}
}

// decodeBounded decodes data into a fresh value of the row's type and fails
// the test if that panics, allocates out of proportion to the input (a
// length believed before it was checked), or fails with anything but an
// ErrMalformed. A decode that succeeds must give a value that re-encodes.
func (pc payloadCase) decodeBounded(t *testing.T, kind string, data []byte, what string) {
	t.Helper()
	// A BitVec header per one-byte empty code is the worst honest ratio; the
	// constant absorbs what the runtime itself allocates meanwhile (TotalAlloc
	// is process-wide), and is far below what a believed length would cost.
	limit := uint64(64*len(data) + 64<<10)
	v := pc.zero()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := (&Envelope{Kind: kind, Data: data}).Decode(v)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("%s: decoding %d bytes allocated %d (limit %d)", what, len(data), got, limit)
	}
	if err != nil {
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: error does not wrap ErrMalformed: %v", what, err)
		}
		return
	}
	if _, err := NewEnvelope(kind, "", 1, 0, v); err != nil {
		t.Fatalf("%s: decoded value does not re-encode: %v", what, err)
	}
}

// TestPayloadsSurviveDamage walks every proper prefix and every single-byte
// corruption of an encoding of every payload type, as a body and as a whole
// frame: nothing panics, nothing allocates beyond a small multiple of the
// input, every failure is an ErrMalformed (or, for a cut frame, an EOF), and
// whatever still decodes re-encodes.
func TestPayloadsSurviveDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("walks every byte of every payload")
	}
	for _, pc := range payloads {
		t.Run(pc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				g := newGen(seed)
				g.small = true
				kind := pc.kinds[0]
				body := encodeBody(t, kind, pc.gen(g))
				for cut := 0; cut < len(body); cut++ {
					pc.decodeBounded(t, kind, body[:cut], fmt.Sprintf("seed %d body prefix %d/%d", seed, cut, len(body)))
				}
				damaged := make([]byte, len(body))
				for i := range body {
					for _, mask := range []byte{0x01, 0x80, 0xff} {
						copy(damaged, body)
						damaged[i] ^= mask
						pc.decodeBounded(t, kind, damaged, fmt.Sprintf("seed %d body byte %d ^ %#x", seed, i, mask))
					}
				}

				var buf bytes.Buffer
				if _, err := WriteEnvelope(&buf, &Envelope{Kind: kind, Auth: "tok", ID: 9, Data: body}); err != nil {
					t.Fatal(err)
				}
				frame := buf.Bytes()
				for cut := 0; cut < len(frame); cut++ {
					if env, _, err := ReadFrame(bytes.NewReader(frame[:cut])); err == nil {
						t.Fatalf("seed %d: %d of %d frame bytes read as a %s frame", seed, cut, len(frame), env.Kind)
					}
				}
				damaged = make([]byte, len(frame))
				for i := range frame {
					copy(damaged, frame)
					damaged[i] ^= 0x40
					env, _, err := ReadFrame(bytes.NewReader(damaged))
					switch {
					case err != nil && !IsMalformed(err) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF):
						// A damaged length makes the reader wait for bytes that
						// never come; everything else must be malformed.
						t.Fatalf("seed %d frame byte %d: unclassified error %v", seed, i, err)
					case err == nil && i >= headerLen+len("tok"):
						t.Fatalf("seed %d: corrupt body byte %d went unnoticed", seed, i)
					case err == nil:
						pc.decodeBounded(t, env.Kind, env.Data, fmt.Sprintf("seed %d frame byte %d", seed, i))
					}
				}
			}
		})
	}
}

// goldenGen returns the generator of the golden value of the i-th kind of a
// payloads row. train-start's frame was made as the second kind of its row,
// before the retired "train" (code 2) left it, and keeps that seed.
func goldenGen(kind string, i int) *valueGen {
	if kind == KindTrainStart {
		i = 1
	}
	g := newGen(int64(1000 + i))
	g.small = true
	return g
}

// goldenEnvelope is the fixed header every golden frame carries.
func goldenEnvelope(kind string, body []byte) *Envelope {
	return &Envelope{
		Kind: kind, Auth: "golden-token", ID: 0x0102030405060708, TimeoutNanos: int64(1500 * time.Millisecond),
		TraceID: 0x1112131415161718, SpanID: 0x2122232425262728, TraceSampled: true, Data: body,
	}
}

// TestGoldenFrames pins the byte layout: one checked-in frame per kind
// (testdata/v3/<kind>.bin), which today's writer must reproduce exactly and
// today's reader must decode to the value it was made from. Regenerate with
// go test ./internal/wire -run TestGoldenFrames -update — and bump
// ProtocolVersion if the change is not an addition.
func TestGoldenFrames(t *testing.T) {
	for _, pc := range payloads {
		for i, kind := range pc.kinds {
			want := pc.gen(goldenGen(kind, i))
			var frame bytes.Buffer
			if _, err := WriteEnvelope(&frame, goldenEnvelope(kind, encodeBody(t, kind, want))); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "v3", kind+".bin")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, frame.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame.Bytes(), golden) {
				t.Errorf("%s: the writer no longer produces the golden frame\n got %x\nwant %x", kind, frame.Bytes(), golden)
				continue
			}
			env, n, err := ReadFrame(bytes.NewReader(golden))
			if err != nil {
				t.Errorf("%s: %v", kind, err)
				continue
			}
			head, wantHead := *env, *goldenEnvelope(kind, nil)
			head.Data, head.sum = nil, 0
			if n != len(golden) || !reflect.DeepEqual(head, wantHead) {
				t.Errorf("%s: header read back as %+v (%d bytes), want %+v (%d bytes)", kind, head, n, wantHead, len(golden))
			}
			got := pc.zero()
			if err := env.Decode(got); err != nil {
				t.Errorf("%s: %v", kind, err)
			} else if !pc.same(got, want) {
				t.Errorf("%s: golden frame decodes to %+v, want %+v", kind, got, want)
			}
		}
	}
	if *update {
		writeFuzzCorpus(t)
	}
}
