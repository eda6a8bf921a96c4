package core_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEngineLayersDoNotImportTransport pins the import boundary of the
// engine: internal/core, internal/index and internal/cluster are the
// server-side retrieval stack and must stay free of the transport layers
// (internal/server, internal/client, internal/wire). A violation here means
// engine code grew a dependency on RPC plumbing — the layering the segmented
// index refactor relies on (index and cluster are swappable below core)
// would quietly erode.
func TestEngineLayersDoNotImportTransport(t *testing.T) {
	forbidden := map[string]string{
		"mie/internal/server":  "transport (server)",
		"mie/internal/client":  "transport (client)",
		"mie/internal/wire":    "wire protocol",
		"mie/internal/replica": "replication tier",
		"mie/internal/router":  "routing tier",
	}
	// Directories relative to this test file (internal/core).
	layers := map[string]string{
		"core":    ".",
		"index":   filepath.Join("..", "index"),
		"cluster": filepath.Join("..", "cluster"),
		"ann":     filepath.Join("..", "ann"),
	}
	fset := token.NewFileSet()
	for layer, dir := range layers {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s directory: %v", layer, err)
		}
		for _, entry := range entries {
			name := entry.Name()
			if entry.IsDir() || !strings.HasSuffix(name, ".go") {
				continue
			}
			// Test files may import anything (oracles, harnesses).
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Errorf("parse %s: %v", path, err)
				continue
			}
			for _, imp := range f.Imports {
				importPath := strings.Trim(imp.Path.Value, `"`)
				if why, bad := forbidden[importPath]; bad {
					t.Errorf("%s/%s imports %s (%s): engine layers must not depend on transport",
						layer, name, importPath, why)
				}
			}
		}
	}
}

// TestReplicationTierImportBoundaries pins the scale-out tier's layering:
// the replica package plugs into the server through interfaces
// (server.ReplicationSource, server.Forwarder), so it must never import the
// server itself — and the router is a pure frame proxy that must know
// nothing of the server, the replication internals, or the engine. Core
// stays below both: it may be imported, never import them (covered by
// TestEngineLayersDoNotImportTransport above).
func TestReplicationTierImportBoundaries(t *testing.T) {
	forbidden := map[string]map[string]bool{
		filepath.Join("..", "replica"): {
			"mie/internal/server": true,
			"mie/internal/router": true,
		},
		filepath.Join("..", "router"): {
			"mie/internal/server":  true,
			"mie/internal/replica": true,
			"mie/internal/core":    true,
		},
	}
	fset := token.NewFileSet()
	for dir, banned := range forbidden {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, entry := range entries {
			name := entry.Name()
			if entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Errorf("parse %s: %v", path, err)
				continue
			}
			for _, imp := range f.Imports {
				importPath := strings.Trim(imp.Path.Value, `"`)
				if banned[importPath] {
					t.Errorf("%s imports %s: replication-tier layering violation", path, importPath)
				}
			}
		}
	}
}

// TestIndexAndClusterDoNotImportCore checks direction within the engine:
// the index and cluster layers sit below core and must not import it (or
// each other's sibling, for cluster -> index).
func TestIndexAndClusterDoNotImportCore(t *testing.T) {
	forbidden := map[string]map[string]bool{
		filepath.Join("..", "index"):   {"mie/internal/core": true},
		filepath.Join("..", "cluster"): {"mie/internal/core": true, "mie/internal/index": true},
		filepath.Join("..", "ann"):     {"mie/internal/core": true, "mie/internal/index": true},
	}
	fset := token.NewFileSet()
	for dir, banned := range forbidden {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, entry := range entries {
			name := entry.Name()
			if entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Errorf("parse %s: %v", path, err)
				continue
			}
			for _, imp := range f.Imports {
				importPath := strings.Trim(imp.Path.Value, `"`)
				if banned[importPath] {
					t.Errorf("%s imports %s: upward dependency inside the engine", path, importPath)
				}
			}
		}
	}
}

// TestTransportDoesNotImportGob keeps reflection-driven encoding off the
// network path: every frame and body — replication payloads included — is
// written by the hand-rolled binary codec (internal/wire, internal/bin), so
// the packages a request passes through must not import encoding/gob.
// Within internal/core gob survives only where it is cold and pinned by
// checked-in bytes: the snapshot (snapshot.go, object.go) and the read-only
// decoder of pre-ISSUE-18 WAL records (wal_legacy.go).
func TestTransportDoesNotImportGob(t *testing.T) {
	coreMayUseGob := map[string]bool{"snapshot.go": true, "object.go": true, "wal_legacy.go": true}
	fset := token.NewFileSet()
	for _, pkg := range []string{"wire", "bin", "client", "server", "router", "replica", "core"} {
		dir := filepath.Join("..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, entry := range entries {
			name := entry.Name()
			if entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if pkg == "core" && coreMayUseGob[name] {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Errorf("parse %s: %v", path, err)
				continue
			}
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) == "encoding/gob" {
					t.Errorf("%s imports encoding/gob: requests, WAL records and replication payloads are written by the binary codec only", path)
				}
			}
		}
	}
}
