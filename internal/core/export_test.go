package core

import (
	"os"
	"path/filepath"
	"testing"

	"mie/internal/wal"
)

// Seams for the external test package (identity_test.go), which drives this
// package through the replication tier and so cannot live inside it.

const (
	WALUpdate = walUpdate
	WALRemove = walRemove
)

// LogPayloads reads every record payload of a repository's log in dir.
func LogPayloads(t *testing.T, dir, id string) [][]byte {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, walFileName(id)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	var out [][]byte
	if _, err := wal.ReadLog(f, func(b []byte) error {
		out = append(out, append([]byte(nil), b...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// SetUpdateIndexHook installs (nil removes) the injected index failure.
func SetUpdateIndexHook(h func(Modality) error) { updateIndexHook = h }
