package core_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// importRule is one package's import contract, held over its non-test files
// (test files may import anything: oracles, harnesses). Packages are named
// by their directory under internal/, anything else by its import path.
type importRule struct {
	pkg string
	// deny lists imports the package must not have.
	deny []string
	// allow, when set, turns the row into an allow-list: the standard
	// library plus these packages of this module and nothing else, so new
	// coupling fails by default.
	allow []string
	// exempt lists files of the package the row does not bind.
	exempt []string
}

var (
	// The transport and scale-out layers the engine must stay below.
	transport = []string{"server", "client", "wire", "replica", "router"}
	gob       = []string{"encoding/gob"}
)

// importRules is every import boundary of the tree, under the name of the
// test that enforces it and with what a violation breaks.
var importRules = map[string]struct {
	why   string
	rules []importRule
}{
	"TestEngineLayersDoNotImportTransport": {"engine layers must not depend on transport", []importRule{
		{pkg: "core", deny: transport},
		{pkg: "index", deny: transport},
		{pkg: "cluster", deny: transport},
		{pkg: "ann", deny: transport},
	}},
	"TestIndexAndClusterDoNotImportCore": {"upward dependency inside the engine", []importRule{
		{pkg: "index", deny: []string{"core"}},
		{pkg: "cluster", deny: []string{"core", "index"}},
		{pkg: "ann", deny: []string{"core", "index"}},
	}},
	"TestReplicationTierImportBoundaries": {"replication-tier layering violation", []importRule{
		{pkg: "replica", deny: []string{"server", "router"}},
		{pkg: "router", deny: []string{"server", "replica", "core"}},
	}},
	"TestTransportDoesNotImportGob": {"requests, WAL records and replication payloads are written by the binary codec only", []importRule{
		{pkg: "wire", deny: gob},
		{pkg: "bin", deny: gob},
		{pkg: "client", deny: gob},
		{pkg: "server", deny: gob},
		{pkg: "router", deny: gob},
		{pkg: "replica", deny: gob},
		// Within core gob survives only where it is cold and pinned by
		// checked-in bytes: the snapshot.
		{pkg: "core", deny: gob, exempt: []string{"snapshot.go", "object.go"}},
	}},
	"TestBaselinesImportOnlyPrimitives": {"the baselines are built from MIE's primitives, not from MIE", []importRule{
		{pkg: "msse", allow: []string{"cluster", "crypto", "paillier", "device", "fusion", "imaging", "index", "text"}},
	}},
}

// checkImports walks the rules filed under the calling test's name.
func checkImports(t *testing.T) {
	t.Helper()
	gate, ok := importRules[t.Name()]
	if !ok {
		t.Fatal("no import rules are filed under this test's name")
	}
	fset := token.NewFileSet()
	for _, r := range gate.rules {
		dir := filepath.Join("..", r.pkg) // relative to this file's directory, internal/core
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, entry := range entries {
			name := entry.Name()
			if entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || slices.Contains(r.exempt, name) {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Errorf("parse %s: %v", path, err)
				continue
			}
			for _, imp := range f.Imports {
				full := strings.Trim(imp.Path.Value, `"`)
				short := strings.TrimPrefix(full, "mie/internal/")
				ours := full == "mie" || strings.HasPrefix(full, "mie/")
				if slices.Contains(r.deny, short) || (r.allow != nil && ours && !slices.Contains(r.allow, short)) {
					t.Errorf("%s imports %s: %s", path, full, gate.why)
				}
			}
		}
	}
}

// TestEngineLayersDoNotImportTransport pins the import boundary of the
// engine: internal/core, internal/index, internal/cluster and internal/ann
// are the server-side retrieval stack and must stay free of the transport
// and scale-out layers — the layering the segmented index refactor relies
// on (index and cluster are swappable below core).
func TestEngineLayersDoNotImportTransport(t *testing.T) { checkImports(t) }

// TestReplicationTierImportBoundaries pins the scale-out tier's layering:
// the replica package plugs into the server through interfaces
// (server.ReplicationSource, server.Forwarder), so it must never import the
// server itself — and the router is a pure frame proxy that must know
// nothing of the server, the replication internals, or the engine.
func TestReplicationTierImportBoundaries(t *testing.T) { checkImports(t) }

// TestIndexAndClusterDoNotImportCore checks direction within the engine:
// the index, cluster and ann layers sit below core and must not import it
// (or, for cluster and ann, their sibling index).
func TestIndexAndClusterDoNotImportCore(t *testing.T) { checkImports(t) }

// TestTransportDoesNotImportGob keeps reflection-driven encoding off the
// network path: every frame and body — replication payloads included — is
// written by the hand-rolled binary codec (internal/wire, internal/bin), so
// the packages a request passes through must not import encoding/gob.
func TestTransportDoesNotImportGob(t *testing.T) { checkImports(t) }

// TestBaselinesImportOnlyPrimitives: the MSSE baselines are built from the
// same primitives as MIE and from nothing of MIE itself — not the engine,
// not the wire.
func TestBaselinesImportOnlyPrimitives(t *testing.T) { checkImports(t) }
