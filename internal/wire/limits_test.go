package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"mie/internal/core"
	"mie/internal/dpe"
	"mie/internal/vec"
)

// claimedHeader is a frame header of the given kind whose length field
// claims the given size.
func claimedHeader(kind string, claim uint32) []byte {
	hdr := make([]byte, headerLen)
	binary.BigEndian.PutUint32(hdr, claim)
	hdr[4], hdr[5] = frameMagic, kindCodes[kind]
	return hdr
}

// allocatedBy reports the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileHeaderAllocatesNothing: the four length bytes come from an
// unauthenticated peer, so they are checked against the kind's cap before
// anything is allocated on their word.
func TestHostileHeaderAllocatesNothing(t *testing.T) {
	// 16 bytes claiming a 200 MiB cancel: refused from the prefix alone.
	cancel := claimedHeader(KindCancel, 200<<20)[:16]
	var err error
	if got := allocatedBy(func() { _, _, err = ReadFrame(bytes.NewReader(cancel)) }); got > 1<<20 {
		t.Errorf("refusing an oversized cancel allocated %d bytes", got)
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("200 MiB cancel: err = %v, want ErrFrameTooLarge", err)
	}

	// An update may be that large, so its claim is believed — but the buffer
	// grows only with the bytes that actually arrive.
	update := append(claimedHeader(KindUpdate, 200<<20), make([]byte, 1024)...)
	if got := allocatedBy(func() { _, _, err = ReadFrame(bytes.NewReader(update)) }); got > 4<<20 {
		t.Errorf("a 200 MiB update that sent 1 KiB allocated %d bytes", got)
	}
	if err == nil || IsMalformed(err) {
		t.Errorf("stalled update: err = %v, want a transport error", err)
	}
}

// TestEveryKindHasACap: the small kinds are capped at tens of KiB, search
// at a few MiB, and only the kinds that carry objects or snapshots reach
// MaxFrameSize — checked on both the reading and the writing side.
func TestEveryKindHasACap(t *testing.T) {
	large := map[string]bool{KindUpdate: true, KindGetResp: true, KindSearchResp: true, KindReplRecords: true}
	for code := 1; code < len(kinds); code++ {
		k := kinds[code]
		switch {
		case large[k.name] && k.maxFrame != MaxFrameSize:
			t.Errorf("%s is capped at %d, want MaxFrameSize", k.name, k.maxFrame)
		case !large[k.name] && k.maxFrame > queryFrame:
			t.Errorf("%s may reach %d bytes", k.name, k.maxFrame)
		}
		_, _, err := ReadFrame(bytes.NewReader(claimedHeader(k.name, k.maxFrame+1)))
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("%s claiming cap+1: err = %v, want ErrFrameTooLarge", k.name, err)
		}
	}
}

// TestLargeBodyGrowsAsItArrives: a body above bodyChunk is read through the
// doubling buffer and arrives intact, in a buffer of exactly its size.
func TestLargeBodyGrowsAsItArrives(t *testing.T) {
	ct := make([]byte, 3*bodyChunk+12345)
	for i := range ct {
		ct[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	writeFrame(t, &buf, KindGetResp, GetResp{Ciphertext: ct, Owner: "o"})
	env, n, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got GetResp
	if err := env.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if n < len(ct) || !bytes.Equal(got.Ciphertext, ct) || got.Owner != "o" {
		t.Errorf("large body damaged in transit (%d bytes read)", n)
	}
	if cap(env.Data) != len(env.Data) {
		t.Errorf("frame buffer has %d spare bytes", cap(env.Data)-len(env.Data))
	}
}

// TestUpdateDoesNotAliasFrame: the engine stores a decoded update for the
// object's lifetime, so nothing in it may point into the frame it arrived
// in — else every stored object would pin an 11 KB network buffer.
func TestUpdateDoesNotAliasFrame(t *testing.T) {
	code := vec.NewBitVec(130)
	code.Set(129, true)
	want := UpdateReq{RepoID: "r", Update: core.Update{
		ObjectID: "o", Owner: "u", Ciphertext: bytes.Repeat([]byte{0xc7}, 300),
		TextTokens:     map[dpe.Token]uint64{{1}: 2, {3}: 4},
		ImageEncodings: []vec.BitVec{code, code}, AudioEncodings: []vec.BitVec{code},
	}}
	var frame bytes.Buffer
	writeFrame(t, &frame, KindUpdate, want)
	raw := frame.Bytes()
	env, _, err := ReadFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var got UpdateReq
	if err := env.Decode(&got); err != nil {
		t.Fatal(err)
	}
	for i := range env.Data {
		env.Data[i] = 0xff
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("overwriting the frame buffer changed the decoded update")
	}
	if ct := got.Update.Ciphertext; cap(ct) != len(ct) {
		t.Errorf("ciphertext copy has cap %d for len %d", cap(ct), len(ct))
	}

	// What the receiver consumes and drops does alias: a hit's ciphertext is
	// a window into the frame, not a copy.
	frame.Reset()
	writeFrame(t, &frame, KindSearchResp, SearchResp{Hits: []core.SearchHit{{ObjectID: "o", Ciphertext: []byte("secret")}}})
	env, _, err = ReadFrame(&frame)
	if err != nil {
		t.Fatal(err)
	}
	var resp SearchResp
	if err := env.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	copy(env.Data[len(env.Data)-6:], "SECRET")
	if string(resp.Hits[0].Ciphertext) != "SECRET" {
		t.Error("a search hit's ciphertext was copied out of the frame")
	}
}

// TestWritePoolDropsLargeBuffers: a snapshot-sized frame must not leave its
// buffer in the pool, where it would sit on the heap until some later GC
// cycle happened to clear it.
func TestWritePoolDropsLargeBuffers(t *testing.T) {
	writeFrame(t, io.Discard, KindGetResp, GetResp{Ciphertext: make([]byte, 8<<20)})
	runtime.GC()
	writeFrame(t, io.Discard, KindAck, Ack{Status{Err: "small"}})
	for i := 0; i < 64; i++ {
		bp := writeBufs.Get().(*[]byte)
		if cap(*bp) > pooledBufCap {
			t.Fatalf("the pool handed out a %d-byte buffer", cap(*bp))
		}
	}
}

// TestFrameBufferBelongsToEnvelope: an envelope's Data stays intact while
// later frames are read from the same stream — read buffers are per frame,
// never reused.
func TestFrameBufferBelongsToEnvelope(t *testing.T) {
	var stream bytes.Buffer
	writeFrame(t, &stream, KindGetResp, GetResp{Ciphertext: bytes.Repeat([]byte{0xaa}, 300)})
	writeFrame(t, &stream, KindGetResp, GetResp{Ciphertext: bytes.Repeat([]byte{0xbb}, 300)})
	r := bytes.NewReader(stream.Bytes())
	first, _, err := ReadFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), first.Data...)
	if _, _, err := ReadFrame(r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Data, snapshot) {
		t.Error("reading the next frame overwrote the previous envelope's Data")
	}
}

// countingWriter counts Write calls.
type countingWriter struct{ writes, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestOneWritePerFrame: header, auth and body leave in a single Write — one
// syscall on a socket, one record on a TLS connection.
func TestOneWritePerFrame(t *testing.T) {
	for _, size := range []int{0, 100, pooledBufCap, 3 * pooledBufCap} {
		var w countingWriter
		n, err := WriteEnvelope(&w, &Envelope{Kind: KindGetResp, Auth: "tok", Data: make([]byte, size)})
		if err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 || w.bytes != n || n != headerLen+3+size {
			t.Errorf("%d-byte body: %d writes of %d bytes, reported %d", size, w.writes, w.bytes, n)
		}
	}
}
