package audio

import (
	"fmt"
	"math"
	"testing"

	"mie/internal/vec"
)

func mustTone(t *testing.T, dur float64, freqs, amps []float64, noise float64, seed int64) *Clip {
	t.Helper()
	c, err := tone(dur, freqs, amps, noise, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestToneValidation(t *testing.T) {
	if _, err := tone(1, []float64{440}, nil, 0, 1); err == nil {
		t.Error("expected error for mismatched freqs/amps")
	}
	if _, err := tone(0, nil, nil, 0, 1); err == nil {
		t.Error("expected error for zero duration")
	}
}

func TestClipDuration(t *testing.T) {
	c := mustTone(t, 0.5, []float64{440}, []float64{1}, 0, 1)
	if math.Abs(c.Duration()-0.5) > 1e-3 {
		t.Errorf("Duration = %v", c.Duration())
	}
}

func TestExtractShape(t *testing.T) {
	c := mustTone(t, 0.2, []float64{440}, []float64{1}, 0, 1)
	descs := Extract(c)
	if len(descs) == 0 {
		t.Fatal("no descriptors")
	}
	wantFrames := (len(c.Samples)-frameSize)/hopSize + 1
	if len(descs) != wantFrames {
		t.Errorf("got %d descriptors, want %d", len(descs), wantFrames)
	}
	for _, d := range descs {
		if len(d) != DescriptorDim {
			t.Fatalf("descriptor dim %d", len(d))
		}
		if n := vec.Norm(d); math.Abs(n-DescriptorScale) > 1e-9 {
			t.Fatalf("descriptor norm %v, want %v", n, DescriptorScale)
		}
	}
}

func TestExtractShortOrNilClip(t *testing.T) {
	if got := Extract(nil); got != nil {
		t.Error("nil clip should yield nil")
	}
	if got := Extract(NewClip(make([]float64, 10))); got != nil {
		t.Error("sub-frame clip should yield nil")
	}
}

func TestExtractSilence(t *testing.T) {
	descs := Extract(NewClip(make([]float64, frameSize*2)))
	for _, d := range descs {
		if vec.Norm(d) != 0 {
			t.Fatalf("silence descriptor norm %v, want 0", vec.Norm(d))
		}
	}
}

func TestSpectralSelectivity(t *testing.T) {
	// A 440 Hz tone and a 3500 Hz tone must produce clearly different
	// descriptors, and each should have its energy concentrated in
	// different bands.
	low := Extract(mustTone(t, 0.1, []float64{440}, []float64{1}, 0, 1))
	high := Extract(mustTone(t, 0.1, []float64{3500}, []float64{1}, 0, 2))
	bands := bandFrequencies()
	argmax := func(d []float64) int {
		best := 0
		for i, v := range d {
			if v > d[best] {
				best = i
			}
		}
		_ = bands
		return best
	}
	if argmax(low[0]) >= argmax(high[0]) {
		t.Errorf("440Hz peak band %d should be below 3500Hz peak band %d",
			argmax(low[0]), argmax(high[0]))
	}
	if d := vec.Euclidean(low[0], high[0]); d < 0.1 {
		t.Errorf("distinct tones produced near-identical descriptors (d=%v)", d)
	}
}

func TestSimilarClipsCloserThanDissimilar(t *testing.T) {
	base := Extract(mustTone(t, 0.1, []float64{440, 880}, []float64{1, 0.5}, 0.05, 1))
	near := Extract(mustTone(t, 0.1, []float64{440, 880}, []float64{1, 0.5}, 0.05, 2)) // same timbre, new noise
	far := Extract(mustTone(t, 0.1, []float64{2000, 5000}, []float64{1, 0.7}, 0.05, 3))
	var dNear, dFar float64
	for i := range base {
		dNear += vec.Euclidean(base[i], near[i])
		dFar += vec.Euclidean(base[i], far[i])
	}
	if dNear >= dFar {
		t.Errorf("same-timbre clips (%v) should be closer than different (%v)", dNear, dFar)
	}
}

func TestToneDeterministic(t *testing.T) {
	a := mustTone(t, 0.05, []float64{440}, []float64{1}, 0.1, 7)
	b := mustTone(t, 0.05, []float64{440}, []float64{1}, 0.1, 7)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("Tone not deterministic")
		}
	}
}

func TestDescriptorDistancesBounded(t *testing.T) {
	a := Extract(mustTone(t, 0.05, []float64{300}, []float64{1}, 0.2, 1))
	b := Extract(mustTone(t, 0.05, []float64{6000}, []float64{1}, 0.2, 2))
	for i := range a {
		if d := vec.Euclidean(a[i], b[i]); d > 2*DescriptorScale+1e-9 {
			t.Fatalf("distance %v exceeds bound", d)
		}
	}
}

// tone synthesizes a test clip: a sum of sine partials with optional noise,
// deterministic in its arguments.
func tone(durationSec float64, freqs []float64, amps []float64, noise float64, seed int64) (*Clip, error) {
	if len(freqs) != len(amps) {
		return nil, fmt.Errorf("audio: %d freqs vs %d amps", len(freqs), len(amps))
	}
	n := int(durationSec * SampleRate)
	if n <= 0 {
		return nil, fmt.Errorf("audio: non-positive duration %v", durationSec)
	}
	samples := make([]float64, n)
	// Small deterministic LCG for the noise.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/float64(1<<53)*2 - 1
	}
	for i := range samples {
		t := float64(i) / SampleRate
		var v float64
		for j, f := range freqs {
			v += amps[j] * math.Sin(2*math.Pi*f*t)
		}
		v += noise * next()
		samples[i] = v
	}
	return NewClip(samples), nil
}
