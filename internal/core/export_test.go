package core

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"mie/internal/wal"
)

// Seams for the external test packages (identity_test.go, hugek_test.go),
// which drive this package through the server, the client and the
// replication tier and so cannot live inside it.

const (
	WALUpdate = walUpdate
	WALRemove = walRemove
)

var (
	TestClient       = testClient
	TestObject       = testObject
	TestDataKey      = testDataKey
	SmallRepoOptions = smallRepoOptions
)

// SetSearchCollectHook installs (or, with nil, clears) a hook that runs
// between a Search's lookups and its collect step.
func SetSearchCollectHook(f func()) { searchCollectHook = f }

// LogPayloads reads every record payload of a repository's log in dir.
func LogPayloads(t *testing.T, dir, id string) [][]byte {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, walFileName(id)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	return readPayloads(t, f)
}

// readPayloads reads every record payload of a log.
func readPayloads(t *testing.T, log io.Reader) [][]byte {
	t.Helper()
	var out [][]byte
	if _, err := wal.ReadLog(log, func(b []byte) error {
		out = append(out, append([]byte(nil), b...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}
