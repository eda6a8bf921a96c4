package crypto

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b
	}
	return k
}

func TestKeyFromBytes(t *testing.T) {
	if _, err := KeyFromBytes(make([]byte, 31)); err == nil {
		t.Error("expected error for short key")
	}
	raw := make([]byte, KeySize)
	raw[0] = 42
	k, err := KeyFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if k[0] != 42 {
		t.Error("key bytes not copied")
	}
}

func TestNewRandomKeyDistinct(t *testing.T) {
	a, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("two random keys are equal")
	}
}

func TestPRFDeterministic(t *testing.T) {
	k := testKey(1)
	a := PRF(k, []byte("hello"))
	b := PRF(k, []byte("hello"))
	if !bytes.Equal(a, b) {
		t.Error("PRF not deterministic")
	}
	if len(a) != 32 {
		t.Errorf("PRF output %d bytes, want 32", len(a))
	}
}

func TestPRFSeparation(t *testing.T) {
	k1, k2 := testKey(1), testKey(2)
	if bytes.Equal(PRF(k1, []byte("x")), PRF(k2, []byte("x"))) {
		t.Error("different keys produced same PRF output")
	}
	if bytes.Equal(PRF(k1, []byte("x")), PRF(k1, []byte("y"))) {
		t.Error("different messages produced same PRF output")
	}
}

func TestPRFNoCollisionsProperty(t *testing.T) {
	k := testKey(3)
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		return !bytes.Equal(PRF(k, a), PRF(k, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPRFUint64(t *testing.T) {
	k := testKey(4)
	if bytes.Equal(PRFUint64(k, 0), PRFUint64(k, 1)) {
		t.Error("counters 0 and 1 collide")
	}
	if !bytes.Equal(PRFUint64(k, 7), PRFUint64(k, 7)) {
		t.Error("PRFUint64 not deterministic")
	}
}

func TestDeriveKey(t *testing.T) {
	k := testKey(5)
	a := DeriveKey(k, "dense")
	b := DeriveKey(k, "sparse")
	if a == b {
		t.Error("different purposes derived the same key")
	}
	if a != DeriveKey(k, "dense") {
		t.Error("DeriveKey not deterministic")
	}
}

func TestPRGDeterministic(t *testing.T) {
	g1 := NewPRG(testKey(6), "test")
	g2 := NewPRG(testKey(6), "test")
	for i := 0; i < 100; i++ {
		if g1.Uint64() != g2.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestPRGLabelSeparation(t *testing.T) {
	g1 := NewPRG(testKey(6), "a")
	g2 := NewPRG(testKey(6), "b")
	same := 0
	for i := 0; i < 32; i++ {
		if g1.Uint64() == g2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/32 identical outputs across labels", same)
	}
}

func TestPRGFloat64Range(t *testing.T) {
	g := NewPRG(testKey(7), "float")
	for i := 0; i < 10000; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestPRGFloat64Uniformity(t *testing.T) {
	g := NewPRG(testKey(8), "uniform")
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestPRGNormFloat64Moments(t *testing.T) {
	g := NewPRG(testKey(9), "gauss")
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("gaussian variance = %v, want ~1", variance)
	}
}

func TestCipherRoundTrip(t *testing.T) {
	c := NewCipher(testKey(11))
	tests := [][]byte{nil, {}, []byte("a"), []byte("hello world"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, pt := range tests {
		ct, err := c.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pt) {
			t.Errorf("round trip failed for %d bytes", len(pt))
		}
	}
}

func TestCipherRoundTripProperty(t *testing.T) {
	c := NewCipher(testKey(12))
	f := func(pt []byte) bool {
		ct, err := c.Encrypt(pt)
		if err != nil {
			return false
		}
		got, err := c.Decrypt(ct)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCipherProbabilistic(t *testing.T) {
	c := NewCipher(testKey(13))
	pt := []byte("same plaintext")
	a, err := c.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("IND-CPA cipher produced identical ciphertexts for same plaintext")
	}
}

func TestCipherWrongKey(t *testing.T) {
	c1 := NewCipher(testKey(14))
	c2 := NewCipher(testKey(15))
	ct, err := c1.Encrypt([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, []byte("secret")) {
		t.Error("wrong key decrypted to plaintext")
	}
}

func TestCipherTooShort(t *testing.T) {
	c := NewCipher(testKey(16))
	if _, err := c.Decrypt([]byte{1, 2, 3}); err != ErrCiphertextTooShort {
		t.Errorf("err = %v, want ErrCiphertextTooShort", err)
	}
}

func TestCipherUint64(t *testing.T) {
	c := NewCipher(testKey(17))
	for _, v := range []uint64{0, 1, 42, 1 << 40, ^uint64(0)} {
		ct, err := c.EncryptUint64(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.DecryptUint64(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("uint64 round trip: got %d, want %d", got, v)
		}
	}
	if _, err := c.DecryptUint64([]byte{}); err == nil {
		t.Error("expected error for empty ciphertext")
	}
}
