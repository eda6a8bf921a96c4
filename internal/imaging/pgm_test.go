package imaging

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestPGMRoundTrip(t *testing.T) {
	src := noiseImage(t, 13, 9, 21)
	got, err := ReadPGM(binaryPGM(src))
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 13 || got.H != 9 {
		t.Fatalf("dims %dx%d", got.W, got.H)
	}
	for i := range src.Pix {
		if math.Abs(got.Pix[i]-src.Pix[i]) > 1.0/255+1e-9 {
			t.Fatalf("pixel %d: %v vs %v", i, got.Pix[i], src.Pix[i])
		}
	}
}

func TestReadPGMAscii(t *testing.T) {
	const p2 = `P2
# a comment line
3 2
255
0 128 255
64 32 16
`
	im, err := ReadPGM(strings.NewReader(p2))
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 3 || im.H != 2 {
		t.Fatalf("dims %dx%d", im.W, im.H)
	}
	if math.Abs(im.At(1, 0)-128.0/255) > 1e-9 {
		t.Errorf("pixel (1,0) = %v", im.At(1, 0))
	}
	if im.At(2, 0) != 1 {
		t.Errorf("pixel (2,0) = %v, want 1", im.At(2, 0))
	}
}

func TestReadPGMErrors(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{name: "wrong magic", data: "P6\n2 2\n255\nxxxx"},
		{name: "empty", data: ""},
		{name: "garbage header", data: "P5\nnope 2\n255\n"},
		{name: "maxval too big", data: "P5\n2 2\n65535\n"},
		{name: "zero width", data: "P5\n0 2\n255\n"},
		{name: "truncated pixels", data: "P5\n4 4\n255\nxy"},
		{name: "ascii pixel out of range", data: "P2\n1 1\n100\n101\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadPGM(strings.NewReader(tt.data)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestPGMFeedsPipeline(t *testing.T) {
	src := noiseImage(t, 32, 32, 22)
	im, err := ReadPGM(binaryPGM(src))
	if err != nil {
		t.Fatal(err)
	}
	descs := Extract(im, PyramidParams{Scales: []int{16}})
	if len(descs) == 0 {
		t.Fatal("no descriptors from PGM-decoded image")
	}
}

// binaryPGM encodes im as binary PGM (P5, 8-bit), rounding each pixel to
// the nearest of 256 levels.
func binaryPGM(im *Image) *bytes.Buffer {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "P5\n%d %d\n255\n", im.W, im.H)
	for _, v := range im.Pix {
		buf.WriteByte(byte(math.Min(math.Max(v, 0), 1)*255 + 0.5))
	}
	return &buf
}
