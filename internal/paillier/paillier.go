// Package paillier implements the Paillier public-key cryptosystem
// (Paillier, EUROCRYPT'99): an additively homomorphic IND-CPA encryption
// scheme. The Hom-MSSE baseline (paper Appendix) encrypts keyword counters
// and frequencies under Paillier so the cloud can increment counters and
// accumulate TF-IDF scores without learning their values:
//
//	D(E(a) · E(b) mod n²)   = a + b mod n
//	D(E(a)^k mod n²)        = k·a mod n
//
// The implementation uses the simplified variant g = n+1, for which
// L(g^λ mod n²) = λ and encryption is E(m,r) = (1+m·n)·rⁿ mod n².
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Common errors.
var (
	// ErrMessageRange is returned when a plaintext is negative or >= n.
	ErrMessageRange = errors.New("paillier: message out of range")
	// ErrCiphertextRange is returned when a ciphertext is out of Z*_{n²}.
	ErrCiphertextRange = errors.New("paillier: ciphertext out of range")
)

var one = big.NewInt(1)

// PublicKey holds n and the cached n² needed for all homomorphic operations.
type PublicKey struct {
	N  *big.Int
	N2 *big.Int // n²
}

// PrivateKey adds the decryption trapdoor λ = lcm(p-1, q-1) and
// μ = λ⁻¹ mod n.
type PrivateKey struct {
	PublicKey

	Lambda *big.Int
	Mu     *big.Int
}

// GenerateKey creates a key pair with an n of the given bit length. For the
// benchmark harness 1024-bit keys reproduce the paper's cost profile; tests
// may use shorter keys for speed (minimum 128 bits).
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 128 {
		return nil, fmt.Errorf("paillier: key size %d too small (min 128)", bits)
	}
	if random == nil {
		random = rand.Reader
	}
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generate p: %w", err)
		}
		q, err := rand.Prime(random, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generate q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		lambda := new(big.Int).Div(new(big.Int).Mul(pm1, qm1), new(big.Int).GCD(nil, nil, pm1, qm1))
		mu := new(big.Int).ModInverse(lambda, n)
		if mu == nil {
			continue // gcd(λ, n) != 1; re-draw primes
		}
		return &PrivateKey{
			PublicKey: PublicKey{N: n, N2: new(big.Int).Mul(n, n)},
			Lambda:    lambda,
			Mu:        mu,
		}, nil
	}
}

// Encrypt encrypts m (0 <= m < n) with fresh randomness:
// c = (1 + m·n) · rⁿ mod n².
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, ErrMessageRange
	}
	if random == nil {
		random = rand.Reader
	}
	r, err := pk.randomUnit(random)
	if err != nil {
		return nil, err
	}
	// (1 + m·n) mod n²
	c := new(big.Int).Mul(m, pk.N)
	c.Add(c, one)
	c.Mod(c, pk.N2)
	// · rⁿ mod n²
	rn := new(big.Int).Exp(r, pk.N, pk.N2)
	c.Mul(c, rn)
	c.Mod(c, pk.N2)
	return c, nil
}

// EncryptUint64 is a convenience wrapper for small counters/frequencies.
func (pk *PublicKey) EncryptUint64(random io.Reader, v uint64) (*big.Int, error) {
	return pk.Encrypt(random, new(big.Int).SetUint64(v))
}

// randomUnit draws r uniform in [1, n) with gcd(r, n) = 1.
func (pk *PublicKey) randomUnit(random io.Reader) (*big.Int, error) {
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: draw randomizer: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// Add returns the ciphertext of a+b given ciphertexts of a and b:
// c = c1·c2 mod n².
func (pk *PublicKey) Add(c1, c2 *big.Int) (*big.Int, error) {
	if err := pk.checkCiphertext(c1); err != nil {
		return nil, err
	}
	if err := pk.checkCiphertext(c2); err != nil {
		return nil, err
	}
	out := new(big.Int).Mul(c1, c2)
	out.Mod(out, pk.N2)
	return out, nil
}

// ScalarMul returns the ciphertext of k·a given a ciphertext of a:
// c^k mod n². Negative k is reduced mod n (two's-complement semantics in
// Z_n).
func (pk *PublicKey) ScalarMul(c *big.Int, k *big.Int) (*big.Int, error) {
	if err := pk.checkCiphertext(c); err != nil {
		return nil, err
	}
	kk := new(big.Int).Mod(k, pk.N)
	return new(big.Int).Exp(c, kk, pk.N2), nil
}

func (pk *PublicKey) checkCiphertext(c *big.Int) error {
	if c == nil || c.Sign() <= 0 || c.Cmp(pk.N2) >= 0 {
		return ErrCiphertextRange
	}
	return nil
}

// Decrypt recovers m from c: m = L(c^λ mod n²) · μ mod n, with
// L(x) = (x-1)/n.
func (sk *PrivateKey) Decrypt(c *big.Int) (*big.Int, error) {
	if err := sk.checkCiphertext(c); err != nil {
		return nil, err
	}
	x := new(big.Int).Exp(c, sk.Lambda, sk.N2)
	x.Sub(x, one)
	x.Div(x, sk.N)
	x.Mul(x, sk.Mu)
	x.Mod(x, sk.N)
	return x, nil
}

// DecryptUint64 decrypts and narrows to uint64, failing loudly on overflow
// rather than silently truncating a counter.
func (sk *PrivateKey) DecryptUint64(c *big.Int) (uint64, error) {
	m, err := sk.Decrypt(c)
	if err != nil {
		return 0, err
	}
	if !m.IsUint64() {
		return 0, fmt.Errorf("paillier: plaintext %s exceeds uint64", m.String())
	}
	return m.Uint64(), nil
}
