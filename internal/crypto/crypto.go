// Package crypto provides the symmetric primitives MIE is built on:
//
//   - PRF: a pseudo-random function (HMAC-SHA256), the basis of Sparse-DPE
//     and of the PRF'd index positions in the MSSE baselines.
//   - PRG: a deterministic pseudo-random generator (AES-CTR keystream), used
//     to expand a short Dense-DPE key into the projection matrix A and
//     dither w, and for all reproducible randomness in the framework.
//   - Cipher: IND-CPA symmetric encryption of data objects (AES-CTR with a
//     fresh random IV per message), exactly the "semantically secure
//     block-cipher such as AES in CTR mode" the paper prescribes for data
//     keys.
//
// All keys are fixed-size byte arrays; helpers derive sub-keys by PRF so a
// single repository key can be fanned out into per-purpose keys without
// additional key distribution.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// KeySize is the size in bytes of all symmetric keys in the framework.
const KeySize = 32

// Key is a 256-bit symmetric key.
type Key [KeySize]byte

// NewRandomKey returns a fresh key from the OS entropy source.
func NewRandomKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("crypto: read random key: %w", err)
	}
	return k, nil
}

// KeyFromBytes builds a key from exactly KeySize bytes.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return k, fmt.Errorf("crypto: key must be %d bytes, got %d", KeySize, len(b))
	}
	copy(k[:], b)
	return k, nil
}

// DeriveKey deterministically derives a sub-key for the given purpose label,
// e.g. DeriveKey(rk, "dense-dpe").
func DeriveKey(k Key, purpose string) Key {
	var out Key
	copy(out[:], PRF(k, []byte(purpose)))
	return out
}

// PRF evaluates the pseudo-random function on msg under key k. The output is
// 32 bytes (HMAC-SHA256).
func PRF(k Key, msg []byte) []byte {
	mac := hmac.New(sha256.New, k[:])
	mac.Write(msg)
	return mac.Sum(nil)
}

// PRFString is PRF over a string message.
func PRFString(k Key, msg string) []byte {
	return PRF(k, []byte(msg))
}

// PRFUint64 evaluates the PRF on a 64-bit counter, the token shape used by
// the MSSE index positions l = PRF(k1, ctr).
func PRFUint64(k Key, ctr uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], ctr)
	return PRF(k, buf[:])
}

// PRG is a deterministic pseudo-random generator: the AES-256-CTR keystream
// of a zero plaintext under the seed key. For a PPT-bounded adversary its
// output is indistinguishable from true randomness, which is the property
// Dense-DPE's security proof relies on when expanding the seed into {A, w}.
//
// PRG is not safe for concurrent use; each consumer should create its own.
type PRG struct {
	stream cipher.Stream
	// buffered gaussian from Box-Muller
	hasSpare bool
	spare    float64
}

// NewPRG creates a generator seeded with the given key and a per-use label,
// so several independent streams can be derived from one key.
func NewPRG(seed Key, label string) *PRG {
	k := DeriveKey(seed, "prg:"+label)
	block, err := aes.NewCipher(k[:])
	if err != nil {
		// aes.NewCipher only fails on invalid key sizes, which KeySize rules out.
		panic(fmt.Sprintf("crypto: aes.NewCipher: %v", err))
	}
	iv := make([]byte, block.BlockSize())
	return &PRG{stream: cipher.NewCTR(block, iv)}
}

// Read fills p with pseudo-random bytes. It never fails.
func (g *PRG) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	g.stream.XORKeyStream(p, p)
	return len(p), nil
}

// Uint64 returns a pseudo-random 64-bit value.
func (g *PRG) Uint64() uint64 {
	var buf [8]byte
	if _, err := g.Read(buf[:]); err != nil {
		panic(err) // unreachable: Read never fails
	}
	return binary.BigEndian.Uint64(buf[:])
}

// Float64 returns a pseudo-random value uniform in [0,1).
func (g *PRG) Float64() float64 {
	return float64(g.Uint64()>>11) / float64(1<<53)
}

// NormFloat64 returns a standard normal sample via Box-Muller, driven by the
// PRG stream. Used to populate the Dense-DPE projection matrix A.
func (g *PRG) NormFloat64() float64 {
	if g.hasSpare {
		g.hasSpare = false
		return g.spare
	}
	var u1, u2 float64
	for {
		u1 = g.Float64()
		if u1 > 0 {
			break
		}
	}
	u2 = g.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	theta := 2 * math.Pi * u2
	g.spare = r * math.Sin(theta)
	g.hasSpare = true
	return r * math.Cos(theta)
}

// Cipher provides IND-CPA encryption (AES-256-CTR, fresh random IV per
// message). The ciphertext layout is IV || body.
type Cipher struct {
	block cipher.Block
	// randSource lets tests inject determinism; defaults to crypto/rand.
	randSource io.Reader
}

// NewCipher builds a Cipher for the given key.
func NewCipher(k Key) *Cipher {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		panic(fmt.Sprintf("crypto: aes.NewCipher: %v", err))
	}
	return &Cipher{block: block, randSource: rand.Reader}
}

// ErrCiphertextTooShort is returned by Decrypt for ciphertexts shorter than
// one IV.
var ErrCiphertextTooShort = errors.New("crypto: ciphertext too short")

// Encrypt returns IV||CTR(plaintext) under a fresh random IV.
func (c *Cipher) Encrypt(plaintext []byte) ([]byte, error) {
	bs := c.block.BlockSize()
	out := make([]byte, bs+len(plaintext))
	if _, err := io.ReadFull(c.randSource, out[:bs]); err != nil {
		return nil, fmt.Errorf("crypto: read IV: %w", err)
	}
	cipher.NewCTR(c.block, out[:bs]).XORKeyStream(out[bs:], plaintext)
	return out, nil
}

// Decrypt reverses Encrypt.
func (c *Cipher) Decrypt(ciphertext []byte) ([]byte, error) {
	bs := c.block.BlockSize()
	if len(ciphertext) < bs {
		return nil, ErrCiphertextTooShort
	}
	out := make([]byte, len(ciphertext)-bs)
	cipher.NewCTR(c.block, ciphertext[:bs]).XORKeyStream(out, ciphertext[bs:])
	return out, nil
}

// EncryptUint64 encrypts an 8-byte big-endian integer; the shape used for
// IND-CPA-protected keyword frequencies in the MSSE baseline.
func (c *Cipher) EncryptUint64(v uint64) ([]byte, error) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return c.Encrypt(buf[:])
}

// DecryptUint64 reverses EncryptUint64.
func (c *Cipher) DecryptUint64(ciphertext []byte) (uint64, error) {
	pt, err := c.Decrypt(ciphertext)
	if err != nil {
		return 0, err
	}
	if len(pt) != 8 {
		return 0, fmt.Errorf("crypto: uint64 plaintext has %d bytes", len(pt))
	}
	return binary.BigEndian.Uint64(pt), nil
}
