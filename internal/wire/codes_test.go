package wire

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mie/internal/auth"
	"mie/internal/core"
)

func TestErrCodeClassification(t *testing.T) {
	cases := []struct {
		err   error
		code  int
		retry time.Duration
	}{
		{nil, ErrCodeUnspecified, 0},
		{errors.New("opaque"), ErrCodeUnspecified, 0},
		{core.ErrRepoExists, ErrCodeExists, 0},
		{fmt.Errorf("wrapped: %w", core.ErrRepoExists), ErrCodeExists, 0},
		{core.ErrRepoNotFound, ErrCodeRepoNotFound, 0},
		{core.ErrOverQuota, ErrCodeOverQuota, 0},
		{&core.QuotaError{Tenant: "t", Resource: "inflight", RetryAfter: 50 * time.Millisecond}, ErrCodeOverQuota, 50 * time.Millisecond},
		{auth.ErrBadMAC, ErrCodeUnauthorized, 0},
		{auth.ErrExpired, ErrCodeUnauthorized, 0},
		{core.ErrUnknownObject, ErrCodeUnknownObject, 0},
		{core.ErrUnknownJob, ErrCodeUnknownJob, 0},
		{fmt.Errorf("hello: %w", ErrUnsupportedVersion), ErrCodeUnsupportedVersion, 0},
	}
	for _, c := range cases {
		code, retry := ErrCode(c.err)
		if code != c.code || retry != c.retry {
			t.Errorf("ErrCode(%v) = (%d, %v), want (%d, %v)", c.err, code, retry, c.code, c.retry)
		}
	}
}

func TestSentinelRoundTrip(t *testing.T) {
	// Every sentinel-backed code maps back to an error the original matches
	// with errors.Is, so client-side unwrapping mirrors server-side intent.
	for _, err := range []error{
		core.ErrRepoExists,
		core.ErrRepoNotFound,
		core.ErrOverQuota,
		core.ErrUnknownObject,
		core.ErrUnknownJob,
		ErrUnsupportedVersion,
	} {
		code, _ := ErrCode(err)
		if s := Sentinel(code); !errors.Is(err, s) {
			t.Errorf("Sentinel(%d) = %v does not match source %v", code, s, err)
		}
	}
	if Sentinel(ErrCodeUnspecified) != nil {
		t.Error("Sentinel(Unspecified) should be nil")
	}
	if Sentinel(999) != nil {
		t.Error("Sentinel of unknown code should be nil")
	}
}
