package auth

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mie/internal/crypto"
)

func testAuthority(b byte) *Authority {
	var k crypto.Key
	k[0] = b
	return NewAuthority(k)
}

func TestIssueVerify(t *testing.T) {
	a := testAuthority(1)
	tok, err := a.Issue("alice", "photos", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(tok, "photos"); err != nil {
		t.Errorf("fresh token rejected: %v", err)
	}
}

func TestIssueValidation(t *testing.T) {
	a := testAuthority(1)
	if _, err := a.Issue("", "r", 0); err == nil {
		t.Error("expected error for empty user")
	}
	if _, err := a.Issue("u", "", 0); err == nil {
		t.Error("expected error for empty repo")
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	a := testAuthority(2)
	tok, err := a.Issue("bob with spaces", "repo/with:chars", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(tok.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != tok {
		t.Errorf("round trip mismatch:\n%+v\n%+v", parsed, tok)
	}
	if user, err := a.VerifyString("repo/with:chars", tok.Encode()); err != nil || user != tok.User {
		t.Errorf("VerifyString = %q, %v; want %q", user, err, tok.User)
	}
}

func TestParseGarbage(t *testing.T) {
	for _, s := range []string{"", "!!!", "aGVsbG8", strings.Repeat("A", 200)} {
		if _, err := Parse(s); !errors.Is(err, ErrMalformed) {
			t.Errorf("Parse(%q) err = %v, want ErrMalformed", s, err)
		}
	}
}

func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForgedTokenRejected(t *testing.T) {
	a := testAuthority(3)
	other := testAuthority(4)
	tok, err := other.Issue("mallory", "photos", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(tok, "photos"); !errors.Is(err, ErrBadMAC) {
		t.Errorf("foreign token: err = %v, want ErrBadMAC", err)
	}
	// Tampering with any field breaks the MAC.
	mine, err := a.Issue("alice", "photos", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tampered := mine
	tampered.User = "mallory"
	if err := a.Verify(tampered, "photos"); !errors.Is(err, ErrBadMAC) {
		t.Errorf("tampered user: err = %v, want ErrBadMAC", err)
	}
	tampered = mine
	tampered.ExpiresAt += 100000
	if err := a.Verify(tampered, "photos"); !errors.Is(err, ErrBadMAC) {
		t.Errorf("tampered expiry: err = %v, want ErrBadMAC", err)
	}
}

func TestWrongRepo(t *testing.T) {
	a := testAuthority(5)
	tok, err := a.Issue("alice", "photos", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(tok, "medical"); !errors.Is(err, ErrWrongRepo) {
		t.Errorf("err = %v, want ErrWrongRepo", err)
	}
}

func TestExpiry(t *testing.T) {
	a := testAuthority(6)
	now := time.Unix(1000000, 0)
	a.SetClock(func() time.Time { return now })
	tok, err := a.Issue("alice", "r", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(tok, "r"); err != nil {
		t.Fatalf("fresh: %v", err)
	}
	now = now.Add(2 * time.Minute)
	if err := a.Verify(tok, "r"); !errors.Is(err, ErrExpired) {
		t.Errorf("err = %v, want ErrExpired", err)
	}
	// A no-expiry token survives.
	forever, err := a.Issue("alice", "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(1000 * time.Hour)
	if err := a.Verify(forever, "r"); err != nil {
		t.Errorf("no-expiry token rejected: %v", err)
	}
}

func TestRevokeToken(t *testing.T) {
	a := testAuthority(7)
	t1, err := a.Issue("alice", "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := a.Issue("alice", "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Revoke(t1)
	if err := a.Verify(t1, "r"); !errors.Is(err, ErrRevoked) {
		t.Errorf("revoked token: err = %v", err)
	}
	if err := a.Verify(t2, "r"); err != nil {
		t.Errorf("sibling token caught in revocation: %v", err)
	}
}

func TestRevokeUser(t *testing.T) {
	a := testAuthority(8)
	now := time.Unix(2000000, 0)
	a.SetClock(func() time.Time { return now })
	old, err := a.Issue("mallory", "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	aliceTok, err := a.Issue("alice", "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	a.RevokeUser("mallory")
	if err := a.Verify(old, "r"); !errors.Is(err, ErrRevoked) {
		t.Errorf("revoked user's token: err = %v", err)
	}
	if err := a.Verify(aliceTok, "r"); err != nil {
		t.Errorf("other user affected: %v", err)
	}
	// Re-issuing after the cutoff re-admits the user.
	now = now.Add(time.Second)
	fresh, err := a.Issue("mallory", "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(fresh, "r"); err != nil {
		t.Errorf("re-issued token rejected: %v", err)
	}
}

func TestTokenIDsDistinct(t *testing.T) {
	a := testAuthority(9)
	t1, err := a.Issue("u", "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := a.Issue("u", "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	if t1.ID() == t2.ID() {
		t.Error("two tokens share an id")
	}
}
