// Package auth implements the user access-control mechanism the paper's
// system model delegates to "sharing authorization tokens between trusted
// users" (§III-A, after Curtmola et al.) with the revocation support §III-B
// requires against malicious users.
//
// The repository owner holds an authority key and mints bearer tokens that
// bind (user, repository, validity window). The cloud server receives the
// *verification* capability and enforces access before executing requests.
// The server is honest-but-curious, so giving it the MAC key is consistent
// with the trust model: access control defends against other users, not
// against the server itself (data confidentiality is DPE+AES's job).
//
// Revocation is immediate and two-grained: individual tokens by id, or all
// of a user's tokens issued before a cutoff (the "periodic key refreshment"
// pattern: re-issue after revoking the user).
package auth

import (
	"crypto/hmac"
	"crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"mie/internal/crypto"
)

// Verification errors.
var (
	// ErrMalformed is returned for tokens that fail to parse.
	ErrMalformed = errors.New("auth: malformed token")
	// ErrBadMAC is returned for tokens not minted by this authority.
	ErrBadMAC = errors.New("auth: invalid token signature")
	// ErrExpired is returned for tokens past their validity window.
	ErrExpired = errors.New("auth: token expired")
	// ErrWrongRepo is returned when a token is used on another repository.
	ErrWrongRepo = errors.New("auth: token bound to a different repository")
	// ErrRevoked is returned for revoked tokens or users.
	ErrRevoked = errors.New("auth: token revoked")
)

// Token is a bearer credential for one user on one repository.
type Token struct {
	User      string
	Repo      string
	IssuedAt  int64 // unix seconds
	ExpiresAt int64 // unix seconds; 0 = no expiry
	Nonce     [16]byte
	MAC       [32]byte
}

// ID identifies the token for revocation (the nonce in hex).
func (t Token) ID() string {
	return fmt.Sprintf("%x", t.Nonce)
}

// Encode renders the token as a URL-safe string for transport.
func (t Token) Encode() string {
	payload := t.payload()
	buf := make([]byte, 0, len(payload)+32)
	buf = append(buf, payload...)
	buf = append(buf, t.MAC[:]...)
	return base64.RawURLEncoding.EncodeToString(buf)
}

// payload serializes the MAC'd fields: lengths make the encoding injective.
func (t Token) payload() []byte {
	var buf []byte
	appendStr := func(s string) {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(s)))
		buf = append(buf, l[:]...)
		buf = append(buf, s...)
	}
	appendStr(t.User)
	appendStr(t.Repo)
	var ts [16]byte
	binary.BigEndian.PutUint64(ts[:8], uint64(t.IssuedAt))
	binary.BigEndian.PutUint64(ts[8:], uint64(t.ExpiresAt))
	buf = append(buf, ts[:]...)
	buf = append(buf, t.Nonce[:]...)
	return buf
}

// Parse decodes a token string. The signature is NOT checked here; call
// Authority.Verify.
func Parse(s string) (Token, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return Token{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if len(raw) < 4+4+16+16+32 {
		return Token{}, fmt.Errorf("%w: too short", ErrMalformed)
	}
	var t Token
	off := 0
	readStr := func() (string, bool) {
		if off+4 > len(raw) {
			return "", false
		}
		l := int(binary.BigEndian.Uint32(raw[off:]))
		off += 4
		if l < 0 || off+l > len(raw) {
			return "", false
		}
		s := string(raw[off : off+l])
		off += l
		return s, true
	}
	var ok bool
	if t.User, ok = readStr(); !ok {
		return Token{}, fmt.Errorf("%w: user field", ErrMalformed)
	}
	if t.Repo, ok = readStr(); !ok {
		return Token{}, fmt.Errorf("%w: repo field", ErrMalformed)
	}
	if off+16+16+32 != len(raw) {
		return Token{}, fmt.Errorf("%w: bad length", ErrMalformed)
	}
	t.IssuedAt = int64(binary.BigEndian.Uint64(raw[off:]))
	t.ExpiresAt = int64(binary.BigEndian.Uint64(raw[off+8:]))
	off += 16
	copy(t.Nonce[:], raw[off:off+16])
	off += 16
	copy(t.MAC[:], raw[off:])
	return t, nil
}

// Authority mints and verifies tokens for the repositories of one owner.
// It is safe for concurrent use.
type Authority struct {
	key crypto.Key
	now func() time.Time

	mu            sync.Mutex
	revokedTokens map[string]struct{}
	revokedUsers  map[string]int64 // user -> cutoff unix seconds
}

// NewAuthority creates an authority from its secret key. The same key must
// back the verifying side (typically handed to the server at repository
// creation).
func NewAuthority(key crypto.Key) *Authority {
	return &Authority{
		key:           crypto.DeriveKey(key, "auth-authority"),
		now:           time.Now,
		revokedTokens: make(map[string]struct{}),
		revokedUsers:  make(map[string]int64),
	}
}

// SetClock overrides the time source (tests).
func (a *Authority) SetClock(now func() time.Time) { a.now = now }

// Issue mints a token for user on repo, valid for ttl (0 = no expiry).
func (a *Authority) Issue(user, repo string, ttl time.Duration) (Token, error) {
	if user == "" || repo == "" {
		return Token{}, errors.New("auth: user and repo required")
	}
	t := Token{User: user, Repo: repo, IssuedAt: a.now().Unix()}
	if ttl > 0 {
		t.ExpiresAt = a.now().Add(ttl).Unix()
	}
	if _, err := rand.Read(t.Nonce[:]); err != nil {
		return Token{}, fmt.Errorf("auth: nonce: %w", err)
	}
	copy(t.MAC[:], crypto.PRF(a.key, t.payload()))
	return t, nil
}

// Verify checks a token for use on repo: signature, binding, expiry and
// revocation state.
func (a *Authority) Verify(t Token, repo string) error {
	var want [32]byte
	copy(want[:], crypto.PRF(a.key, t.payload()))
	if !hmac.Equal(want[:], t.MAC[:]) {
		return ErrBadMAC
	}
	if t.Repo != repo {
		return ErrWrongRepo
	}
	if t.ExpiresAt != 0 && a.now().Unix() > t.ExpiresAt {
		return ErrExpired
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dead := a.revokedTokens[t.ID()]; dead {
		return ErrRevoked
	}
	if cutoff, ok := a.revokedUsers[t.User]; ok && t.IssuedAt <= cutoff {
		return ErrRevoked
	}
	return nil
}

// VerifyString parses and verifies an encoded token s for use on repo and
// returns the user it names; it has the shape of server.Authorizer.
func (a *Authority) VerifyString(repo, s string) (user string, err error) {
	t, err := Parse(s)
	if err != nil {
		return "", err
	}
	if err := a.Verify(t, repo); err != nil {
		return "", err
	}
	return t.User, nil
}

// Revoke invalidates a single token immediately.
func (a *Authority) Revoke(t Token) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.revokedTokens[t.ID()] = struct{}{}
}

// RevokeUser invalidates every token the user holds that was issued up to
// now; tokens re-issued afterwards (post key-refresh vetting) work again.
func (a *Authority) RevokeUser(user string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.revokedUsers[user] = a.now().Unix()
}
