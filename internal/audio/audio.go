// Package audio is the third-modality substrate, demonstrating the paper's
// claim that MIE handles any dense media format ("an object containing
// text, image, audio, and/or video", §III) through the same machinery: a
// feature extractor producing high-dimensional float descriptors whose
// Euclidean distances capture similarity — everything downstream (Dense-DPE
// encoding, Hamming clustering, BOVW indexing) is media-agnostic.
//
// Clips are mono PCM float slices at a fixed nominal rate. The extractor is
// a compact spectral pipeline: overlapping Hann-windowed frames, per-frame
// log-energy in geometrically spaced frequency bands (Goertzel filters — a
// filterbank in the spirit of MFCCs without the DCT), unit-normalized and
// scaled into Dense-DPE's distance domain.
package audio

import (
	"math"

	"mie/internal/vec"
)

const (
	// SampleRate is the nominal sampling rate clips are interpreted at.
	SampleRate = 16000
	// DescriptorDim is the number of filterbank bands per descriptor.
	DescriptorDim = 32
	// frameSize and hopSize define the analysis windows (16 ms frames,
	// 50% overlap at the nominal rate).
	frameSize = 256
	hopSize   = 128
	// DescriptorScale bounds pairwise descriptor distances the same way
	// imaging.DescriptorScale does, keeping them below the DPE threshold.
	DescriptorScale = 0.3
)

// Clip is a mono audio clip: PCM samples, nominally in [-1, 1].
type Clip struct {
	Samples []float64
}

// NewClip wraps samples in a Clip (the slice is used directly).
func NewClip(samples []float64) *Clip {
	return &Clip{Samples: samples}
}

// Duration returns the clip length in seconds at the nominal rate.
func (c *Clip) Duration() float64 {
	return float64(len(c.Samples)) / SampleRate
}

// bandFrequencies returns the geometrically spaced center frequencies of
// the filterbank, from 100 Hz up to just below Nyquist.
func bandFrequencies() []float64 {
	const lo, hi = 100.0, 7000.0
	out := make([]float64, DescriptorDim)
	ratio := math.Pow(hi/lo, 1/float64(DescriptorDim-1))
	f := lo
	for i := range out {
		out[i] = f
		f *= ratio
	}
	return out
}

// goertzelPower computes the spectral power of frame at frequency f using
// the Goertzel algorithm.
func goertzelPower(frame []float64, f float64) float64 {
	w := 2 * math.Pi * f / SampleRate
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, x := range frame {
		s0 = x + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	return s1*s1 + s2*s2 - coeff*s1*s2
}

// Extract computes one descriptor per analysis frame: the log-energy of
// each filterbank band, unit-normalized and scaled. Clips shorter than one
// frame yield no descriptors.
func Extract(c *Clip) [][]float64 {
	if c == nil || len(c.Samples) < frameSize {
		return nil
	}
	bands := bandFrequencies()
	// Hann window, precomputed.
	window := make([]float64, frameSize)
	for i := range window {
		window[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(frameSize-1)))
	}
	frame := make([]float64, frameSize)
	var out [][]float64
	for off := 0; off+frameSize <= len(c.Samples); off += hopSize {
		for i := range frame {
			frame[i] = c.Samples[off+i] * window[i]
		}
		d := make([]float64, DescriptorDim)
		for b, f := range bands {
			d[b] = math.Log1p(goertzelPower(frame, f))
		}
		if vec.Norm(d) < 1e-12 {
			out = append(out, make([]float64, DescriptorDim)) // silence
			continue
		}
		vec.Normalize(d)
		vec.Scale(d, DescriptorScale)
		out = append(out, d)
	}
	return out
}
