package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"mie/internal/core"
	"mie/internal/dpe"
	"mie/internal/vec"
)

// benchShapes are the three frames the benchmark spine (bench/) moves most:
// a multimodal update of about 11 KB, a ten-hit search response of about
// 26 KB and a text-only query of about 0.9 KB.
func benchShapes() []struct {
	name    string
	kind    string
	payload any
	into    func() any
} {
	r := rand.New(rand.NewSource(1))
	tokens := func(n int) map[dpe.Token]uint64 {
		m := make(map[dpe.Token]uint64, n)
		for i := 0; i < n; i++ {
			var t dpe.Token
			r.Read(t[:])
			m[t] = uint64(1 + r.Intn(5))
		}
		return m
	}
	codes := func(n int) []vec.BitVec {
		out := make([]vec.BitVec, n)
		for i := range out {
			out[i] = vec.NewBitVec(2048)
			for b := 0; b < 2048; b += 1 + r.Intn(3) {
				out[i].Set(b, true)
			}
		}
		return out
	}
	blob := func(n int) []byte {
		b := make([]byte, n)
		r.Read(b)
		return b
	}
	hits := make([]core.SearchHit, 10)
	for i := range hits {
		hits[i] = core.SearchHit{ObjectID: "object-0000", Owner: "owner", Score: r.Float64(), Ciphertext: blob(2600)}
	}
	return []struct {
		name    string
		kind    string
		payload any
		into    func() any
	}{
		{"update-11KB", KindUpdate, UpdateReq{RepoID: "repo", Update: core.Update{
			ObjectID: "object-0000", Owner: "owner", Ciphertext: blob(2600),
			TextTokens: tokens(24), ImageEncodings: codes(29),
		}}, func() any { return new(UpdateReq) }},
		{"search-resp-26KB", KindSearchResp, SearchResp{Hits: hits}, func() any { return new(SearchResp) }},
		{"text-query-0.9KB", KindSearch, SearchReq{RepoID: "repo", Query: core.Query{TextTokens: tokens(24), K: 10}},
			func() any { return new(SearchReq) }},
	}
}

// BenchmarkFrameRoundTrip is the codec's whole job for one frame, as the
// spine's wire.* layer metrics time it: NewEnvelope + WriteEnvelope into a
// buffer, ReadFrame + Decode back out.
func BenchmarkFrameRoundTrip(b *testing.B) {
	for _, shape := range benchShapes() {
		b.Run(shape.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				env, err := NewEnvelope(shape.kind, "", 1, 0, shape.payload)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := WriteEnvelope(&buf, env); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(buf.Len()))
				got, _, err := ReadFrame(bytes.NewReader(buf.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				if err := got.Decode(shape.into()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
