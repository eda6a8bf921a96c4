// Package archcheck holds the architecture of the tree as one table of rules
// over the module's source, each filed under the test that enforces it. It
// has only test files: nothing in the program imports it.
package archcheck

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// gate is one row of the architecture table: what a violation breaks, and
// the rules of each kind that the row holds.
type gate struct {
	why     string
	imports []importRule
	calls   []callRule
	// seams, when set, turns on the reachability rule (reach_test.go):
	// every package-level declaration outside bench/, exported or not, is
	// reached over the call graph from the program's roots, except these
	// named test seams, each with its reason and the ROADMAP item that
	// removes it. A package path stands for every declaration in it.
	seams map[string]string
}

// importRule is one package's direct-import contract, held over its non-test
// files (test files may import anything: oracles, harnesses). Packages are
// named by their directory under internal/, anything else by its import
// path.
type importRule struct {
	// pkg is the package the row binds; "..." binds every package of the
	// module, test files included.
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

// callRule forbids calls to package-level funcs (package-qualified, as
// "wire.ReadFrame") from non-test files outside the packages in allowIn
// (named as importRule.pkg names them).
type callRule struct {
	funcs   []string
	allowIn []string
}

var (
	// The transport and scale-out layers the engine must stay below.
	transport = []string{"server", "client", "wire", "replica", "router"}
	gob       = []string{"encoding/gob"}
)

// gates is every architectural rule of the tree, under the name of the test
// that enforces it and with what a violation breaks.
var gates = map[string]gate{
	"TestEngineLayersDoNotImportTransport": {why: "engine layers must not depend on transport", imports: []importRule{
		{pkg: "core", deny: transport},
		{pkg: "index", deny: transport},
		{pkg: "cluster", deny: transport},
	}},
	"TestIndexAndClusterDoNotImportCore": {why: "upward dependency inside the engine", imports: []importRule{
		{pkg: "index", deny: []string{"core"}},
		{pkg: "cluster", deny: []string{"core", "index"}},
	}},
	"TestReplicationTierImportBoundaries": {why: "replication-tier layering violation", imports: []importRule{
		{pkg: "replica", deny: []string{"server", "router"}},
		{pkg: "router", deny: []string{"server", "replica", "core"}},
	}},
	"TestTransportDoesNotImportGob": {why: "requests, WAL records and replication payloads are written by the binary codec only", imports: []importRule{
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
	"TestIndexIsPureMemory": {why: "the inverted index holds its postings in memory; persistence is the snapshot's job", imports: []importRule{
		{pkg: "index", deny: []string{"encoding/gob", "os"}},
	}},
	"TestBaselinesImportOnlyPrimitives": {why: "the baselines are built from MIE's primitives, not from MIE", imports: []importRule{
		{pkg: "msse", allow: []string{"cluster", "crypto", "paillier", "device", "fusion", "imaging", "index", "text"}},
	}},
	"TestNothingImportsUnsafe": {why: "memory safety is the compiler's, everywhere; no kernel earns an exception", imports: []importRule{
		{pkg: "...", deny: []string{"unsafe"}},
	}},
	"TestFrameIOGoesThroughFrameConn": {why: "every production frame is read and written through wire.FrameConn, which bounds it by its caller's context", calls: []callRule{
		// bench/ keeps a codec yardstick that times the raw calls.
		{funcs: []string{"wire.ReadFrame", "wire.WriteEnvelope"}, allowIn: []string{"wire", "mie/bench"}},
	}},
	"TestNothingExportedForTestsAlone": {why: "no root of the program reaches it: delete it, move it into a _test.go file, or name it here as a seam", seams: map[string]string{
		"wal/walfault": "the fault-injecting wal.File of the crash tests; item 23's internal/faultfs replaces it",
		"leakcheck":    "the goroutine-leak sentinel of four packages' connection tests; permanent, since a helper that several packages' tests share must live in a non-test file",

		"core.SetWALFileOpenerForTest":    "opens the crash tests' WALs through walfault; item 23 replaces it with the faultfs interface",
		"core.SetTrainInstallHookForTest": "parks a Train at its install step for the Train race tests; item 5's seeded trace is to stage these races as steps",
		"core.SetSearchStartHookForTest":  "parks a search after it loaded its epoch, for the same races; item 5 as above",

		"auth":                  "capability tokens no production caller issues; item 19 wires them into mie-server or deletes them",
		"server.WithAuthorizer": "the server's hook for auth; item 19 decides it with auth",

		"device.Meter.Bytes":      "the link bytes the metering tests of server, experiments and msse read; item 9 makes the figures integrate from these counters",
		"device.Meter.RoundTrips": "the round trips the same metering tests count; item 9 as above",

		"experiments.Cluster.NodeService": "a node's service for core's TestReplicatedLogIsTheLeaderLog; item 5's trace test subsumes that test",
	}},
}

// check holds the module to the gate filed under the calling test's name.
func check(t *testing.T) {
	t.Helper()
	g, ok := gates[t.Name()]
	if !ok {
		t.Fatal("no gate is filed under this test's name")
	}
	if len(g.imports) > 0 {
		checkImports(t, parseModule(t), g)
	}
	if len(g.calls) > 0 {
		checkCalls(t, checkModule(t), g)
	}
	if g.seams != nil {
		checkReach(t, checkModule(t), g)
	}
}

func checkImports(t *testing.T, m *module, g gate) {
	t.Helper()
	for _, r := range g.imports {
		var pkgs []*pkg
		if r.pkg == "..." {
			pkgs = m.sorted()
		} else if p := m.pkgs[modulePath+"/internal/"+r.pkg]; p != nil {
			pkgs = []*pkg{p}
		} else {
			t.Fatalf("no package internal/%s", r.pkg)
		}
		for _, p := range pkgs {
			files := p.files
			if r.pkg == "..." {
				files = append(slices.Clip(files), p.tests...)
			}
			for _, f := range files {
				path := m.fset.Position(f.Package).Filename
				if slices.Contains(r.exempt, filepath.Base(path)) {
					continue
				}
				for _, imp := range f.Imports {
					full := strings.Trim(imp.Path.Value, `"`)
					short := strings.TrimPrefix(full, modulePath+"/internal/")
					ours := full == modulePath || strings.HasPrefix(full, modulePath+"/")
					if slices.Contains(r.deny, short) || (r.allow != nil && ours && !slices.Contains(r.allow, short)) {
						t.Errorf("%s imports %s: %s", m.position(imp.Pos()), full, g.why)
					}
				}
			}
		}
	}
}

func checkCalls(t *testing.T, m *module, g gate) {
	t.Helper()
	for _, r := range g.calls {
		for _, p := range m.sorted() {
			if slices.Contains(r.allowIn, p.short()) {
				continue
			}
			for _, f := range p.files {
				ast.Inspect(f, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[id].(*types.Func)
					if ok && fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil && slices.Contains(r.funcs, strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/internal/")+"."+fn.Name()) {
						t.Errorf("%s calls %s.%s: %s", m.position(id.Pos()), fn.Pkg().Name(), fn.Name(), g.why)
					}
					return true
				})
			}
		}
	}
}

// TestEngineLayersDoNotImportTransport pins the import boundary of the
// engine: internal/core, internal/index and internal/cluster are the
// server-side retrieval stack and must stay free of the transport
// and scale-out layers — the layering the segmented index refactor relies
// on (index and cluster are swappable below core).
func TestEngineLayersDoNotImportTransport(t *testing.T) { check(t) }

// TestReplicationTierImportBoundaries pins the scale-out tier's layering:
// the replica package plugs into the server through interfaces
// (server.ReplicationSource, server.Forwarder), so it must never import the
// server itself — and the router is a pure frame proxy that must know
// nothing of the server, the replication internals, or the engine.
func TestReplicationTierImportBoundaries(t *testing.T) { check(t) }

// TestIndexAndClusterDoNotImportCore checks direction within the engine:
// the index and cluster layers sit below core and must not import it (or,
// for cluster, its sibling index).
func TestIndexAndClusterDoNotImportCore(t *testing.T) { check(t) }

// TestTransportDoesNotImportGob keeps reflection-driven encoding off the
// network path: every frame and body — replication payloads included — is
// written by the hand-rolled binary codec (internal/wire, internal/bin), so
// the packages a request passes through must not import encoding/gob.
func TestTransportDoesNotImportGob(t *testing.T) { check(t) }

// TestIndexIsPureMemory: internal/index has one mode, TF-IDF over in-memory
// postings, so it touches neither the disk nor a serialization format.
func TestIndexIsPureMemory(t *testing.T) { check(t) }

// TestBaselinesImportOnlyPrimitives: the MSSE baselines are built from the
// same primitives as MIE and from nothing of MIE itself — not the engine,
// not the wire.
func TestBaselinesImportOnlyPrimitives(t *testing.T) { check(t) }

// TestNothingImportsUnsafe: no file of the module, test files included,
// imports unsafe.
func TestNothingImportsUnsafe(t *testing.T) { check(t) }

// TestFrameIOGoesThroughFrameConn: outside internal/wire, bench/ and test
// files nothing calls wire.ReadFrame or wire.WriteEnvelope; a socket's
// frames go through wire.FrameConn, whose writes honour their caller's
// context and whose reads cost one read(2) a frame.
func TestFrameIOGoesThroughFrameConn(t *testing.T) { check(t) }

// TestNothingExportedForTestsAlone: no declaration outside bench/, exported
// or not, is there for tests alone. One that no root of the program reaches
// (main, init, bench/, package mie's exported API, a declaration named _) is
// code production never runs.
func TestNothingExportedForTestsAlone(t *testing.T) { check(t) }
