// Package imaging is the dense-media feature-extraction substrate. The
// paper's prototype uses OpenCV's SURF descriptors over a Dense Pyramid
// detector; this package reimplements the same pipeline shape in pure Go:
//
//   - grayscale images and integral images for O(1) box sums,
//   - a dense pyramid keypoint grid (fixed sampling at several scales,
//     exactly what "Dense Pyramid feature detection" means),
//   - a 64-dimensional SURF-style descriptor built from Haar wavelet
//     responses aggregated over a 4x4 grid of subregions
//     (Σdx, Σ|dx|, Σdy, Σ|dy| per subregion).
//
// Descriptors are unit-normalized and then scaled by DescriptorScale so
// that pairwise Euclidean distances lie in [0,1] — Dense-DPE's plaintext
// domain — with the distances that matter for matching falling below the
// prototype's threshold t = 0.5.
package imaging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mie/internal/vec"
)

// DescriptorDim is the dimensionality of extracted descriptors (as SURF-64).
const DescriptorDim = 64

// DescriptorScale is the radius descriptors are normalized to. 0.3 puts the
// typical distance between unrelated descriptors (~DescriptorScale*sqrt(2))
// just under the Dense-DPE threshold of 0.5, so the encoded distances the
// cloud clusters on retain the full matching structure.
const DescriptorScale = 0.3

// Image is a grayscale image with float intensities, typically in [0,1].
type Image struct {
	W, H int
	Pix  []float64 // row-major, len W*H
}

// ErrBadImage is returned for an image whose dimensions are not positive or
// whose pixel slice does not hold exactly W·H values; extracting from one
// would index past its pixels.
var ErrBadImage = errors.New("imaging: malformed image")

// Validate reports whether im can be extracted from: W and H positive and
// len(Pix) == W·H, decided without forming a product that could overflow.
func (im *Image) Validate() error {
	if im.W <= 0 || im.H <= 0 || len(im.Pix)%im.W != 0 || len(im.Pix)/im.W != im.H {
		return fmt.Errorf("%w: %dx%d with %d pixels", ErrBadImage, im.W, im.H, len(im.Pix))
	}
	return nil
}

// NewImage allocates a zero image.
func NewImage(w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("imaging: invalid dimensions %dx%d", w, h)
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}, nil
}

// At returns the intensity at (x, y). Out-of-bounds reads clamp to the edge,
// which keeps Haar responses well-defined at image borders.
func (im *Image) At(x, y int) float64 {
	if x < 0 {
		x = 0
	} else if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Set writes intensity v at (x, y). Out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, v float64) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// GobEncode serializes the image with 8-bit pixel depth — the precision of
// real photographs — so encrypted objects on the wire cost one byte per
// pixel instead of a float64.
func (im *Image) GobEncode() ([]byte, error) {
	out := make([]byte, 8+len(im.Pix))
	binary.BigEndian.PutUint32(out[:4], uint32(im.W))
	binary.BigEndian.PutUint32(out[4:8], uint32(im.H))
	for i, v := range im.Pix {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		out[8+i] = byte(math.Round(v * 255))
	}
	return out, nil
}

// GobDecode reverses GobEncode.
func (im *Image) GobDecode(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("imaging: image gob data too short (%d bytes)", len(data))
	}
	w := int(binary.BigEndian.Uint32(data[:4]))
	h := int(binary.BigEndian.Uint32(data[4:8]))
	if w <= 0 || h <= 0 || len(data) != 8+w*h {
		return fmt.Errorf("imaging: image gob data inconsistent (%dx%d, %d bytes)", w, h, len(data))
	}
	im.W, im.H = w, h
	im.Pix = make([]float64, w*h)
	for i := range im.Pix {
		im.Pix[i] = float64(data[8+i]) / 255
	}
	return nil
}

// Integral is a summed-area table over an Image: Sum queries any axis-
// aligned rectangle in O(1), the trick SURF uses to make Haar responses
// scale-independent in cost.
type Integral struct {
	w, h int
	sum  []float64 // (w+1) x (h+1)
}

// NewIntegral builds the summed-area table of im.
func NewIntegral(im *Image) *Integral {
	w, h := im.W, im.H
	ii := &Integral{w: w, h: h, sum: make([]float64, (w+1)*(h+1))}
	stride := w + 1
	for y := 1; y <= h; y++ {
		var rowSum float64
		for x := 1; x <= w; x++ {
			rowSum += im.Pix[(y-1)*w+(x-1)]
			ii.sum[y*stride+x] = ii.sum[(y-1)*stride+x] + rowSum
		}
	}
	return ii
}

// Sum returns the sum of intensities over the half-open rectangle
// [x0,x1) x [y0,y1). Coordinates are clamped to the image.
func (ii *Integral) Sum(x0, y0, x1, y1 int) float64 {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	x0 = clamp(x0, 0, ii.w)
	x1 = clamp(x1, 0, ii.w)
	y0 = clamp(y0, 0, ii.h)
	y1 = clamp(y1, 0, ii.h)
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	stride := ii.w + 1
	return ii.sum[y1*stride+x1] - ii.sum[y0*stride+x1] - ii.sum[y1*stride+x0] + ii.sum[y0*stride+x0]
}

// haarX is the horizontal Haar wavelet response at (x, y) with half-size s:
// right box minus left box.
func (ii *Integral) haarX(x, y, s int) float64 {
	return ii.Sum(x, y-s, x+s, y+s) - ii.Sum(x-s, y-s, x, y+s)
}

// haarY is the vertical Haar wavelet response: bottom box minus top box.
func (ii *Integral) haarY(x, y, s int) float64 {
	return ii.Sum(x-s, y, x+s, y+s) - ii.Sum(x-s, y-s, x+s, y)
}

// Keypoint is a dense-pyramid sample location with its patch size.
type Keypoint struct {
	X, Y int
	Size int // patch side length in pixels
}

// PyramidParams controls the dense pyramid detector.
type PyramidParams struct {
	// Scales lists the patch sizes sampled; defaults to {16, 32, 64}.
	Scales []int
}

// strideDiv divides the patch size to obtain the sampling stride
// (stride = size/strideDiv): 2 is 50% overlap.
const strideDiv = 2

func (p *PyramidParams) setDefaults() {
	if len(p.Scales) == 0 {
		p.Scales = []int{16, 32, 64}
	}
}

// DensePyramid returns the dense grid of keypoints over a WxH image at each
// configured scale, mirroring OpenCV's DenseFeatureDetector with a pyramid.
func DensePyramid(w, h int, params PyramidParams) []Keypoint {
	params.setDefaults()
	var kps []Keypoint
	for _, size := range params.Scales {
		if size > w || size > h {
			continue
		}
		stride := size / strideDiv
		if stride < 1 {
			stride = 1
		}
		for y := size / 2; y+size/2 <= h; y += stride {
			for x := size / 2; x+size/2 <= w; x += stride {
				kps = append(kps, Keypoint{X: x, Y: y, Size: size})
			}
		}
	}
	return kps
}

// Descriptor computes the 64-dimensional SURF-style descriptor for a
// keypoint: the patch is divided into a 4x4 grid of subregions, and each
// subregion contributes (Σdx, Σ|dx|, Σdy, Σ|dy|) over a 2x2 grid of Haar
// sample points. The vector is unit-normalized then scaled by
// DescriptorScale, placing all pairwise distances in [0, 2*DescriptorScale]
// and the similar-patch distances below Dense-DPE's t = 0.5 threshold.
func Descriptor(ii *Integral, kp Keypoint) []float64 {
	d := make([]float64, DescriptorDim)
	sub := kp.Size / 4
	if sub < 1 {
		sub = 1
	}
	haarHalf := sub / 2
	if haarHalf < 1 {
		haarHalf = 1
	}
	x0 := kp.X - kp.Size/2
	y0 := kp.Y - kp.Size/2
	idx := 0
	for sy := 0; sy < 4; sy++ {
		for sx := 0; sx < 4; sx++ {
			var sdx, sadx, sdy, sady float64
			// 2x2 Haar sample points inside the subregion.
			for py := 0; py < 2; py++ {
				for px := 0; px < 2; px++ {
					cx := x0 + sx*sub + (2*px+1)*sub/4
					cy := y0 + sy*sub + (2*py+1)*sub/4
					dx := ii.haarX(cx, cy, haarHalf)
					dy := ii.haarY(cx, cy, haarHalf)
					sdx += dx
					sadx += math.Abs(dx)
					sdy += dy
					sady += math.Abs(dy)
				}
			}
			d[idx] = sdx
			d[idx+1] = sadx
			d[idx+2] = sdy
			d[idx+3] = sady
			idx += 4
		}
	}
	// Guard against amplifying floating-point residue on (near-)flat
	// patches: responses there are numerically tiny but nonzero, and
	// normalizing them would manufacture a spurious unit direction.
	if vec.Norm(d) < 1e-9*float64(kp.Size*kp.Size) {
		return make([]float64, DescriptorDim)
	}
	vec.Normalize(d)
	vec.Scale(d, DescriptorScale)
	return d
}

// Extract runs the full dense-media client pipeline on an image: dense
// pyramid detection followed by descriptor computation at every keypoint.
// This is the image-side analogue of text.Extract.
func Extract(im *Image, params PyramidParams) [][]float64 {
	ii := NewIntegral(im)
	kps := DensePyramid(im.W, im.H, params)
	out := make([][]float64, 0, len(kps))
	for _, kp := range kps {
		out = append(out, Descriptor(ii, kp))
	}
	return out
}
