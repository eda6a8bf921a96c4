package imaging

import (
	"bufio"
	"fmt"
	"io"
)

// ReadPGM decodes a Netpbm grayscale image (binary "P5" or ASCII "P2",
// 8-bit), the simplest interchange format for getting real photographs into
// the pipeline (e.g. `convert photo.jpg photo.pgm`). Intensities are scaled
// to [0,1].
func ReadPGM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic, err := pgmToken(br)
	if err != nil {
		return nil, fmt.Errorf("imaging: read PGM magic: %w", err)
	}
	if magic != "P5" && magic != "P2" {
		return nil, fmt.Errorf("imaging: not a PGM file (magic %q)", magic)
	}
	w, err := pgmInt(br)
	if err != nil {
		return nil, fmt.Errorf("imaging: PGM width: %w", err)
	}
	h, err := pgmInt(br)
	if err != nil {
		return nil, fmt.Errorf("imaging: PGM height: %w", err)
	}
	maxVal, err := pgmInt(br)
	if err != nil {
		return nil, fmt.Errorf("imaging: PGM maxval: %w", err)
	}
	if maxVal <= 0 || maxVal > 255 {
		return nil, fmt.Errorf("imaging: unsupported PGM maxval %d (8-bit only)", maxVal)
	}
	im, err := NewImage(w, h)
	if err != nil {
		return nil, fmt.Errorf("imaging: PGM dimensions: %w", err)
	}
	scale := 1 / float64(maxVal)
	if magic == "P5" {
		buf := make([]byte, w*h)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("imaging: PGM pixel data: %w", err)
		}
		for i, b := range buf {
			im.Pix[i] = float64(b) * scale
		}
		return im, nil
	}
	for i := 0; i < w*h; i++ {
		v, err := pgmInt(br)
		if err != nil {
			return nil, fmt.Errorf("imaging: PGM ascii pixel %d: %w", i, err)
		}
		if v < 0 || v > maxVal {
			return nil, fmt.Errorf("imaging: PGM pixel %d value %d out of range", i, v)
		}
		im.Pix[i] = float64(v) * scale
	}
	return im, nil
}

// pgmToken reads the next whitespace-delimited token, skipping '#' comments.
func pgmToken(br *bufio.Reader) (string, error) {
	var tok []byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			if len(tok) > 0 && err == io.EOF {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case b == '#' && len(tok) == 0:
			if _, err := br.ReadString('\n'); err != nil {
				return "", err
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}

func pgmInt(br *bufio.Reader) (int, error) {
	tok, err := pgmToken(br)
	if err != nil {
		return 0, err
	}
	var v int
	if _, err := fmt.Sscanf(tok, "%d", &v); err != nil {
		return 0, fmt.Errorf("bad integer %q", tok)
	}
	return v, nil
}
