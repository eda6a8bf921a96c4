package wire

import (
	"math"
	"math/rand"
	"reflect"
	"strings"

	"mie/internal/core"
	"mie/internal/dpe"
	"mie/internal/obs"
	"mie/internal/vec"
)

// payloadCase is one row of the payload table: a Go type that travels as a
// frame body, the kinds that carry it, and a seeded generator.
type payloadCase struct {
	name  string                   // the Go type's name
	kinds []string                 // every kind whose body is this type
	gen   func(g *valueGen) any    // pointer to a freshly generated value
	zero  func() any               // pointer to a zero value, to decode into
	equal func(got, want any) bool // nil: reflect.DeepEqual
}

func payload[T any](gen func(g *valueGen) T, kinds ...string) payloadCase {
	var z T
	return payloadCase{
		name:  reflect.TypeOf(z).Name(),
		kinds: kinds,
		gen:   func(g *valueGen) any { v := gen(g); return &v },
		zero:  func() any { return new(T) },
	}
}

// payloads lists every request, response and replication payload type.
// TestPayloadTableIsComplete fails when a struct declared in this package is
// neither here nor in notPayloads, and when a kind has no row.
var payloads = []payloadCase{
	payload(func(g *valueGen) Hello { return Hello{MaxVersion: g.int()} }, KindHello),
	payload(func(g *valueGen) CancelReq { return CancelReq{ID: g.u64()} }, KindCancel),
	payload(func(g *valueGen) CreateRepoReq {
		return CreateRepoReq{RepoID: g.str(), Opts: RepoOptions{
			VocabWords: g.int(), VocabMaxIter: g.int(), TreeBranch: g.int(), TreeHeight: g.int(),
			TreeSeed: int64(g.int()), TrainingSampleCap: g.int(), FusionCandidates: g.int(),
		}}
	}, KindCreateRepo),
	payload(func(g *valueGen) TrainReq { return TrainReq{RepoID: g.str()} }, KindTrain, KindTrainStart),
	payload(func(g *valueGen) TrainJobReq { return TrainJobReq{RepoID: g.str(), JobID: g.u64()} }, KindTrainStatus, KindTrainWait),
	payload(func(g *valueGen) UpdateReq {
		return UpdateReq{RepoID: g.str(), Update: core.Update{
			ObjectID: g.str(), Owner: g.str(), Ciphertext: g.bytes(),
			TextTokens: g.tokens(), ImageEncodings: g.codes(), AudioEncodings: g.codes(),
		}}
	}, KindUpdate),
	payload(func(g *valueGen) RemoveReq { return RemoveReq{RepoID: g.str(), ObjectID: g.str()} }, KindRemove),
	payload(func(g *valueGen) SearchReq {
		return SearchReq{RepoID: g.str(), Query: core.Query{
			TextTokens: g.tokens(), ImageEncodings: g.codes(), AudioEncodings: g.codes(), K: g.int(),
		}}
	}, KindSearch),
	payload(func(g *valueGen) GetReq { return GetReq{RepoID: g.str(), ObjectID: g.str()} }, KindGet),
	payload(func(g *valueGen) TraceGetReq { return TraceGetReq{TraceID: g.u64()} }, KindTraceGet),
	payload(func(g *valueGen) HelloResp {
		return HelloResp{Version: g.int(), Role: g.str(), CaughtUp: g.r.Intn(2) == 1, LagNanos: int64(g.int())}
	}, KindHelloResp),
	payload(func(g *valueGen) Ack {
		return Ack{g.status()}
	}, KindAck, KindError),
	searchRespCase(),
	payload(func(g *valueGen) GetResp {
		return GetResp{Status: g.status(), Ciphertext: g.bytes(), Owner: g.str()}
	}, KindGetResp),
	payload(func(g *valueGen) TrainJobResp {
		return TrainJobResp{Status: g.status(),
			Job: core.TrainJobStatus{JobID: g.u64(), State: core.TrainJobState(g.str()), Err: g.str(), Epoch: g.u64()}}
	}, KindTrainJobResp),
	payload(func(g *valueGen) TraceResp {
		resp := TraceResp{Err: g.str(), Trace: obs.Trace{TraceID: g.u64(), Root: g.str(), StartUnixNano: int64(g.int()),
			DurationNanos: int64(g.int()), Reason: g.str()}}
		resp.Spans = listOf(g, func() obs.SpanRecord {
			return obs.SpanRecord{SpanID: g.u64(), ParentID: g.u64(), Name: g.str(),
				StartUnixNano: int64(g.int()), DurationNanos: int64(g.int()), Err: g.str()}
		})
		return resp
	}, KindTraceResp),
	payload(func(g *valueGen) ReplSubscribeReq {
		return ReplSubscribeReq{RepoID: g.str(), Gen: g.u64(), Seq: g.u64()}
	}, KindReplSubscribe),
	payload(func(g *valueGen) ReplRecords {
		batch := ReplRecords{Err: g.str(), Code: g.int(), RepoID: g.str()}
		batch.Records = listOf(g, func() ReplRecord {
			return NewReplRecord(g.u64(), g.u64(), g.int(), int64(g.int()), g.bytes())
		})
		return batch
	}, KindReplRecords),
	payload(func(g *valueGen) ReplAck { return ReplAck{RepoID: g.str(), Gen: g.u64(), Seq: g.u64()} }, KindReplAck),
}

// notPayloads are the structs of this package that never travel as a frame
// body on their own: the frame itself and parts nested in a payload.
var notPayloads = map[string]bool{
	"Envelope": true, "kindInfo": true,
	"RepoOptions": true, "Status": true, "ReplRecord": true,
}

// searchRespCase compares scores by bit pattern: NaN must survive, and
// reflect.DeepEqual says NaN != NaN.
func searchRespCase() payloadCase {
	c := payload(func(g *valueGen) SearchResp {
		resp := SearchResp{Status: g.status()}
		resp.Hits = listOf(g, func() core.SearchHit {
			return core.SearchHit{ObjectID: g.str(), Owner: g.str(), Score: g.score(), Ciphertext: g.bytes()}
		})
		return resp
	}, KindSearchResp)
	c.equal = func(got, want any) bool {
		a, b := *got.(*SearchResp), *want.(*SearchResp)
		if len(a.Hits) != len(b.Hits) {
			return false
		}
		a.Hits, b.Hits = append([]core.SearchHit(nil), a.Hits...), append([]core.SearchHit(nil), b.Hits...)
		for i := range a.Hits {
			if math.Float64bits(a.Hits[i].Score) != math.Float64bits(b.Hits[i].Score) {
				return false
			}
			a.Hits[i].Score, b.Hits[i].Score = 0, 0
		}
		return reflect.DeepEqual(a, b)
	}
	return c
}

// valueGen draws the awkward values the codec must carry. Two generators
// with the same seed produce the same values, except that one with
// emptyNotNil set returns empty non-nil slices and maps where the other
// returns nil: both must encode to the same bytes, and decode to the nil
// form.
type valueGen struct {
	r           *rand.Rand
	emptyNotNil bool
	// small keeps byte runs and code lists short, for the tests that walk
	// every byte of an encoding.
	small bool
}

func newGen(seed int64) *valueGen { return &valueGen{r: rand.New(rand.NewSource(seed))} }

func (g *valueGen) pick(n int) int { return g.r.Intn(n) }

func (g *valueGen) int() int {
	switch g.pick(6) {
	case 0:
		return 0
	case 1:
		return -1 - g.pick(1000)
	case 2:
		return math.MaxInt64
	case 3:
		return math.MinInt64
	}
	return g.pick(1 << 20)
}

// status draws the error triple every response but TraceResp opens with.
func (g *valueGen) status() Status {
	return Status{Err: g.str(), Code: g.int(), RetryAfterNanos: int64(g.int())}
}

func (g *valueGen) u64() uint64 {
	switch g.pick(5) {
	case 0:
		return 0
	case 1:
		return 1 << 63
	case 2:
		return math.MaxUint64
	}
	return g.r.Uint64() >> uint(g.pick(64))
}

func (g *valueGen) str() string {
	switch g.pick(5) {
	case 0:
		return ""
	case 1:
		return "objet-été-写真-" + strings.Repeat("ü", g.pick(4))
	case 2:
		return string([]byte{0, 0xff, 0xfe, '\n'}) // not UTF-8: ids are opaque bytes
	}
	return "repo-" + strings.Repeat("x", g.pick(20))
}

func (g *valueGen) bytes() []byte {
	limit := 4096
	if g.small {
		limit = 24
	}
	n := 0
	if g.pick(3) > 0 {
		n = g.pick(limit)
	}
	if n == 0 {
		if g.emptyNotNil {
			return []byte{}
		}
		return nil
	}
	b := make([]byte, n)
	g.r.Read(b)
	return b
}

func (g *valueGen) tokens() map[dpe.Token]uint64 {
	n := 0
	if g.pick(3) > 0 {
		n = g.pick(12)
	}
	if n == 0 {
		if g.emptyNotNil {
			return map[dpe.Token]uint64{}
		}
		return nil
	}
	m := make(map[dpe.Token]uint64, n)
	for i := 0; i < n; i++ {
		var t dpe.Token
		g.r.Read(t[:])
		m[t] = g.u64() // includes tf = 1<<63
	}
	return m
}

func (g *valueGen) codes() []vec.BitVec {
	lengths := []int{0, 1, 63, 64, 65, 130, 2048}
	if g.small {
		lengths = []int{0, 1, 65}
	}
	return listOf(g, func() vec.BitVec {
		v := vec.NewBitVec(lengths[g.pick(len(lengths))])
		for i := 0; i < v.Len(); i++ {
			v.Set(i, g.pick(2) == 1)
		}
		return v
	})
}

func (g *valueGen) score() float64 {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000123), math.SmallestNonzeroFloat64, -math.MaxFloat64}
	if i := g.pick(2 * len(specials)); i < len(specials) {
		return specials[i]
	}
	return g.r.NormFloat64()
}

// listOf draws a short list, nil (or empty, see valueGen) a third of the time.
func listOf[T any](g *valueGen, elem func() T) []T {
	n := 0
	if g.pick(3) > 0 {
		n = g.pick(5)
	}
	if n == 0 {
		if g.emptyNotNil {
			return []T{}
		}
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}
