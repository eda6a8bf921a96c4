package server

// Tests for per-tenant admission control at the request boundary: in-flight
// rejections arrive as typed wire errors with a retry hint, per response
// kind, before any engine work runs.

import (
	"errors"
	"testing"
	"time"

	"mie/internal/auth"
	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/leakcheck"
	"mie/internal/wire"
)

func TestAdmissionRejectsOverInflightQuota(t *testing.T) {
	leakcheck.Check(t)
	svc, _, err := core.OpenService(core.ServiceOptions{Quotas: core.Quotas{MaxInflight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("127.0.0.1:0", svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn := dial(t, srv, nil)

	if err := conn.CreateRepository(testCtx, "adm", smallOpts()); err != nil {
		t.Fatal(err)
	}

	// Fill the anonymous tenant's only slot out of band; every subsequent
	// request must bounce with a typed over-quota error.
	release, err := svc.Tenants().Admit("anonymous")
	if err != nil {
		t.Fatal(err)
	}

	// Whatever its reply frame, every kind bounces, typed.
	failEveryKind(t, srv, func(string) string { return "adm" }, wire.ErrCodeOverQuota)
	err = conn.Remove(testCtx, "adm", "whatever")
	if !errors.Is(err, core.ErrOverQuota) {
		t.Fatalf("remove while saturated: err = %v, want ErrOverQuota", err)
	}

	// The rejection carries the in-flight retry hint over the wire.
	var rerr *client.RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("rejection %T is not a RemoteError", err)
	}
	if rerr.RetryAfter <= 0 {
		t.Errorf("in-flight rejection retry-after = %v, want > 0", rerr.RetryAfter)
	}

	release()
	if err := conn.Remove(testCtx, "adm", "x"); errors.Is(err, core.ErrOverQuota) {
		t.Errorf("request after release still rejected: %v", err)
	}
}

// TestAdmissionKeysOnTokenPrincipal: the in-flight quota is keyed on the
// user the authorizer verified. Verified tenants are isolated from each
// other, and a token that merely names a user — forged, or sent to a server
// with no authorizer — is never charged to that user's quota.
func TestAdmissionKeysOnTokenPrincipal(t *testing.T) {
	leakcheck.Check(t)
	var masterAuth crypto.Key
	masterAuth[0] = 7
	authority := auth.NewAuthority(masterAuth)
	tokFor := func(a *auth.Authority, user string) string {
		tok, err := a.Issue(user, "adm2", time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return tok.Encode()
	}
	var otherKey crypto.Key
	otherKey[0] = 8
	forged := tokFor(auth.NewAuthority(otherKey), "alice")

	// serve starts a server with MaxInflight 1 whose tenant alice is
	// saturated out of band, and returns it with a get that carries token.
	serve := func(t *testing.T, opts ...Option) func(token string) error {
		svc, _, err := core.OpenService(core.ServiceOptions{Quotas: core.Quotas{MaxInflight: 1}})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New("127.0.0.1:0", svc, nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		if _, err := svc.CreateRepository("adm2", smallOpts()); err != nil {
			t.Fatal(err)
		}
		releaseAlice, err := svc.Tenants().Admit("alice")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(releaseAlice)
		return func(token string) error {
			conn := dial(t, srv, nil)
			conn.SetToken(token)
			_, _, err := conn.Get(testCtx, "adm2", "x")
			return err
		}
	}

	t.Run("verified tenants are isolated", func(t *testing.T) {
		get := serve(t, WithAuthorizer(authority.VerifyString))
		if err := get(tokFor(authority, "alice")); !errors.Is(err, core.ErrOverQuota) {
			t.Errorf("alice while saturated: err = %v, want ErrOverQuota", err)
		}
		if err := get(tokFor(authority, "bob")); errors.Is(err, core.ErrOverQuota) {
			t.Errorf("bob rejected by alice's quota: %v", err)
		}
	})
	t.Run("an unverified name is not charged", func(t *testing.T) {
		get := serve(t, WithAuthorizer(authority.VerifyString))
		var rerr *client.RemoteError
		if err := get(forged); !errors.As(err, &rerr) || rerr.Code != wire.ErrCodeUnauthorized {
			t.Errorf("forged alice token with an authorizer: err = %v, want unauthorized", err)
		}
		get = serve(t)
		for _, token := range []string{forged, tokFor(authority, "alice"), ""} {
			if err := get(token); errors.Is(err, core.ErrOverQuota) {
				t.Errorf("token %.16q… without an authorizer charged to alice's quota: %v", token, err)
			}
		}
	})
}

// A sequential caller must never be rejected by its own finished request:
// the in-flight slot is released when engine work ends, before the reply is
// written, so the next request on the same connection — sent the moment the
// response is read — always finds the slot free.
func TestAdmissionSequentialCallerNeverSelfRejected(t *testing.T) {
	leakcheck.Check(t)
	svc, _, err := core.OpenService(core.ServiceOptions{Quotas: core.Quotas{MaxInflight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("127.0.0.1:0", svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn := dial(t, srv, nil)
	if err := conn.CreateRepository(testCtx, "seq", smallOpts()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		// Alternate an ack-carrying kind with a kind that has its own reply
		// frame; both miss in the engine, which is not what is under test.
		if i%2 == 0 {
			err = conn.Remove(testCtx, "seq", "absent")
		} else {
			_, _, err = conn.Get(testCtx, "seq", "absent")
		}
		if errors.Is(err, core.ErrOverQuota) {
			t.Fatalf("back-to-back request %d rejected by the caller's own previous request: %v", i, err)
		}
	}
}
