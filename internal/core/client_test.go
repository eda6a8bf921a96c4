package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mie/internal/audio"
	"mie/internal/device"
	"mie/internal/dpe"
	"mie/internal/imaging"
	"mie/internal/vec"
)

// spineClient encodes at the benchmark spine's shape: 2048-bit image codes
// over a {16, 32} pyramid, so a 48 px image gives 29 descriptors.
func spineClient(tb testing.TB, meter *device.Meter) *Client {
	tb.Helper()
	c, err := NewClient(ClientConfig{
		Key:     testRepoKey(1),
		Dense:   dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 2048, Threshold: 0.5},
		Pyramid: imaging.PyramidParams{Scales: []int{16, 32}},
		Meter:   meter,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// noiseImage is a w x h image of seeded uniform noise.
func noiseImage(rng *rand.Rand, w, h int) *imaging.Image {
	im := &imaging.Image{W: w, H: h, Pix: make([]float64, w*h)}
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	return im
}

// noiseClip is a clip of n seeded uniform samples.
func noiseClip(rng *rand.Rand, n int) *audio.Clip {
	s := make([]float64, n)
	for i := range s {
		s[i] = 2*rng.Float64() - 1
	}
	return audio.NewClip(s)
}

// perDescriptor encodes descs one Encode call at a time: the codes a
// client's fanned-out encode must reproduce.
func perDescriptor(t *testing.T, enc *dpe.Dense, descs [][]float64) []vec.BitVec {
	t.Helper()
	out := make([]vec.BitVec, len(descs))
	for i, p := range descs {
		e, err := enc.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = e
	}
	return out
}

func requireSameCodes(t *testing.T, what string, got, want []vec.BitVec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d codes, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: code %d differs from Encode's", what, i)
		}
	}
}

// TestPrepareCodesAcrossWidths: whatever GOMAXPROCS the client runs under,
// the codes PrepareUpdate and PrepareQuery hand the cloud are, in order,
// what Encode gives each descriptor alone — for images, audio and both, from
// no descriptor to an image's 29.
func TestPrepareCodesAcrossWidths(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	c := spineClient(t, nil)
	rng := rand.New(rand.NewSource(31))
	// Image sides and clip lengths that extract n descriptors.
	images := map[int]*imaging.Image{0: noiseImage(rng, 8, 8), 1: noiseImage(rng, 16, 16), 2: noiseImage(rng, 24, 16), 29: noiseImage(rng, 48, 48)}
	clips := map[int]*audio.Clip{0: noiseClip(rng, 100), 1: noiseClip(rng, 256), 2: noiseClip(rng, 384), 29: noiseClip(rng, 256+28*128)}
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 29} {
			imageDescs, audioDescs := imaging.Extract(images[n], c.pyr), audio.Extract(clips[n])
			if len(imageDescs) != n || len(audioDescs) != n {
				t.Fatalf("fixture for %d descriptors extracts %d and %d", n, len(imageDescs), len(audioDescs))
			}
			wantImage, wantAudio := perDescriptor(t, c.dense, imageDescs), perDescriptor(t, c.audioDense, audioDescs)
			for _, obj := range []*Object{
				{ID: "image", Image: images[n]},
				{ID: "audio", Audio: clips[n]},
				{ID: "both", Image: images[n], Audio: clips[n]},
			} {
				what := fmt.Sprintf("GOMAXPROCS=%d/%s/%d descriptors", procs, obj.ID, n)
				up, err := c.PrepareUpdate(obj, testDataKey(1))
				if err != nil {
					t.Fatal(err)
				}
				q, err := c.PrepareQuery(obj, 3)
				if err != nil {
					t.Fatal(err)
				}
				if obj.Image != nil {
					requireSameCodes(t, what+"/update image", up.ImageEncodings, wantImage)
					requireSameCodes(t, what+"/query image", q.ImageEncodings, wantImage)
				}
				if obj.Audio != nil {
					requireSameCodes(t, what+"/update audio", up.AudioEncodings, wantAudio)
					requireSameCodes(t, what+"/query audio", q.AudioEncodings, wantAudio)
				}
			}
		}
	}
}

// TestEncodeWidthFollowsMeter pins how wide a client encodes: GOMAXPROCS
// workers, but one on a metered client, whose Meter charges the encode's
// wall time as a single core's work.
func TestEncodeWidthFollowsMeter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	unmetered, metered := spineClient(t, nil), spineClient(t, device.NewMeter(device.Mobile))
	for _, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		if got := unmetered.encodeWorkers(); got != procs {
			t.Errorf("GOMAXPROCS=%d: unmetered client encodes on %d workers, want %d", procs, got, procs)
		}
		if got := metered.encodeWorkers(); got != 1 {
			t.Errorf("GOMAXPROCS=%d: metered client encodes on %d workers, want 1", procs, got)
		}
	}
}

// spineObject is an object at the benchmark spine's shape: a few words of
// text and a 48 px image (29 descriptors through spineClient).
func spineObject(rng *rand.Rand, id string) *Object {
	return &Object{ID: id, Owner: "u", Text: "harbor boats sunset pier gulls", Image: noiseImage(rng, 48, 48)}
}

var (
	querySink  *Query
	updateSink *Update
)

// BenchmarkPrepareQuery and BenchmarkPrepareUpdate time the client's half of
// a mobile-mixed search and add — extraction, Dense-DPE encode (fanned out
// over GOMAXPROCS workers, so -cpu shows the width's gain), text PRF and, for
// an update, AES — at the spine shape.
func BenchmarkPrepareQuery(b *testing.B) {
	c := spineClient(b, nil)
	obj := spineObject(rand.New(rand.NewSource(1)), "q")
	b.ReportAllocs()
	b.ResetTimer()
	var err error
	for i := 0; i < b.N; i++ {
		if querySink, err = c.PrepareQuery(obj, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrepareUpdate(b *testing.B) {
	c := spineClient(b, nil)
	obj := spineObject(rand.New(rand.NewSource(1)), "u")
	b.ReportAllocs()
	b.ResetTimer()
	var err error
	for i := 0; i < b.N; i++ {
		if updateSink, err = c.PrepareUpdate(obj, testDataKey(1)); err != nil {
			b.Fatal(err)
		}
	}
}
