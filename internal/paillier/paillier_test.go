package paillier

import (
	"errors"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

// testKeyOnce shares one keypair across tests; key generation dominates
// test time otherwise.
var (
	keyOnce sync.Once
	testSK  *PrivateKey
	keyErr  error
)

func key(t *testing.T) *PrivateKey {
	t.Helper()
	keyOnce.Do(func() {
		testSK, keyErr = GenerateKey(nil, 512)
	})
	if keyErr != nil {
		t.Fatal(keyErr)
	}
	return testSK
}

func TestGenerateKeyValidation(t *testing.T) {
	if _, err := GenerateKey(nil, 64); err == nil {
		t.Error("expected error for tiny key")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := key(t)
	for _, v := range []uint64{0, 1, 42, 1 << 32, ^uint64(0)} {
		c, err := sk.EncryptUint64(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.DecryptUint64(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("round trip %d -> %d", v, got)
		}
	}
}

func TestEncryptRange(t *testing.T) {
	sk := key(t)
	if _, err := sk.Encrypt(nil, big.NewInt(-1)); !errors.Is(err, ErrMessageRange) {
		t.Errorf("err = %v, want ErrMessageRange", err)
	}
	if _, err := sk.Encrypt(nil, sk.N); !errors.Is(err, ErrMessageRange) {
		t.Errorf("m = n: err = %v, want ErrMessageRange", err)
	}
}

func TestProbabilisticEncryption(t *testing.T) {
	sk := key(t)
	a, err := sk.EncryptUint64(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sk.EncryptUint64(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cmp(b) == 0 {
		t.Error("two encryptions of the same plaintext are identical")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	sk := key(t)
	ca, err := sk.EncryptUint64(nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := sk.EncryptUint64(nil, 23)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sk.Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.DecryptUint64(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got != 123 {
		t.Errorf("D(E(100)+E(23)) = %d, want 123", got)
	}
}

func TestHomomorphicAddProperty(t *testing.T) {
	sk := key(t)
	f := func(a, b uint32) bool {
		ca, err := sk.EncryptUint64(nil, uint64(a))
		if err != nil {
			return false
		}
		cb, err := sk.EncryptUint64(nil, uint64(b))
		if err != nil {
			return false
		}
		sum, err := sk.Add(ca, cb)
		if err != nil {
			return false
		}
		got, err := sk.DecryptUint64(sum)
		return err == nil && got == uint64(a)+uint64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHomomorphicScalarMul(t *testing.T) {
	sk := key(t)
	c, err := sk.EncryptUint64(nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := sk.ScalarMul(c, big.NewInt(11))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.DecryptUint64(scaled)
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Errorf("D(E(9)^11) = %d, want 99", got)
	}
}

func TestScalarMulZero(t *testing.T) {
	sk := key(t)
	c, err := sk.EncryptUint64(nil, 12345)
	if err != nil {
		t.Fatal(err)
	}
	z, err := sk.ScalarMul(c, big.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.DecryptUint64(z)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("k=0: got %d, want 0", got)
	}
}

func TestHomomorphicTFIDFShape(t *testing.T) {
	// The exact Hom-MSSE server computation: accumulate Σ E(tf)^(w) where w
	// is a public integer weight, then the client decrypts the total.
	sk := key(t)
	tfs := []uint64{3, 1, 4}
	weights := []int64{100, 200, 50}
	var acc *big.Int
	for i, tf := range tfs {
		c, err := sk.EncryptUint64(nil, tf)
		if err != nil {
			t.Fatal(err)
		}
		term, err := sk.ScalarMul(c, big.NewInt(weights[i]))
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = term
			continue
		}
		if acc, err = sk.Add(acc, term); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sk.DecryptUint64(acc)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(3*100 + 1*200 + 4*50)
	if got != want {
		t.Errorf("homomorphic score = %d, want %d", got, want)
	}
}

func TestCiphertextValidation(t *testing.T) {
	sk := key(t)
	bad := []*big.Int{nil, big.NewInt(0), big.NewInt(-5), new(big.Int).Set(sk.N2)}
	good, err := sk.EncryptUint64(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range bad {
		if _, err := sk.Decrypt(c); !errors.Is(err, ErrCiphertextRange) {
			t.Errorf("Decrypt(%v): err = %v, want ErrCiphertextRange", c, err)
		}
		if _, err := sk.Add(good, c); !errors.Is(err, ErrCiphertextRange) {
			t.Errorf("Add(good,%v): err = %v, want ErrCiphertextRange", c, err)
		}
		if _, err := sk.ScalarMul(c, big.NewInt(2)); !errors.Is(err, ErrCiphertextRange) {
			t.Errorf("ScalarMul(%v): err = %v, want ErrCiphertextRange", c, err)
		}
	}
}

func TestDecryptUint64Overflow(t *testing.T) {
	sk := key(t)
	big65 := new(big.Int).Lsh(big.NewInt(1), 65)
	c, err := sk.Encrypt(nil, big65)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.DecryptUint64(c); err == nil {
		t.Error("expected overflow error for 2^65")
	}
}
