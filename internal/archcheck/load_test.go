package archcheck

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// root is the module root, relative to this package's directory, and
// modulePath its import path.
const (
	root       = "../.."
	modulePath = "mie"
)

// pkg is one package of the module: its files as the default build context
// selects them, split into non-test files (type-checked, with types.Info)
// and test files (parsed only).
type pkg struct {
	path  string // import path: "mie", "mie/internal/core", …
	files []*ast.File
	tests []*ast.File
	types *types.Package
	info  *types.Info
}

// short names a package the way the rows do: by its directory under
// internal/ for the internal tree, by its import path otherwise.
func (p *pkg) short() string { return strings.TrimPrefix(p.path, modulePath+"/internal/") }

// module is every package of the module, parsed once per test binary.
type module struct {
	fset *token.FileSet
	pkgs map[string]*pkg // by import path
	std  types.Importer  // the standard library, from source
}

// sorted lists the packages in import-path order, so reports are stable.
func (m *module) sorted() []*pkg {
	out := make([]*pkg, 0, len(m.pkgs))
	for _, p := range m.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

var (
	parseOnce sync.Once
	parsed    *module
	parseErr  error

	checkOnce sync.Once
	checkErr  error
)

// parseModule parses every package directory under the module root.
func parseModule(t *testing.T) *module {
	t.Helper()
	parseOnce.Do(func() { parsed, parseErr = parseTree() })
	if parseErr != nil {
		t.Fatal(parseErr)
	}
	return parsed
}

func parseTree() (*module, error) {
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		p := &pkg{path: modulePath}
		if rel != "." {
			p.path += "/" + filepath.ToSlash(rel)
		}
		parse := func(names []string) ([]*ast.File, error) {
			var files []*ast.File
			for _, name := range names {
				f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			return files, nil
		}
		if p.files, err = parse(bp.GoFiles); err != nil {
			return err
		}
		if p.tests, err = parse(append(bp.TestGoFiles, bp.XTestGoFiles...)); err != nil {
			return err
		}
		m.pkgs[p.path] = p
		return nil
	})
	return m, err
}

// checkModule type-checks every package's non-test files from source; the
// standard library comes from the source importer too, so nothing needs
// compiled export data or the network. The rules that need types hold the
// source, not its concurrency, so they skip under the race detector, which
// only slows the type check (16 s against 3 s on 2 vCPU); every run without
// -race holds them.
func checkModule(t *testing.T) *module {
	t.Helper()
	if raceEnabled {
		t.Skip("a type-checked rule: it holds the source, and runs without -race")
	}
	m := parseModule(t)
	checkOnce.Do(func() {
		m.std = importer.ForCompiler(m.fset, "source", nil)
		var imp importerFunc
		imp = func(path string) (*types.Package, error) {
			p, ok := m.pkgs[path]
			if !ok {
				return m.std.Import(path)
			}
			if p.types != nil {
				return p.types, nil
			}
			if p.info != nil {
				return nil, fmt.Errorf("import cycle through %s", path)
			}
			p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
			conf := types.Config{Importer: imp}
			tp, err := conf.Check(p.path, m.fset, p.files, p.info)
			p.types = tp
			return tp, err
		}
		for _, p := range m.sorted() {
			if _, err := imp(p.path); err != nil {
				checkErr = err
				return
			}
		}
	})
	if checkErr != nil {
		t.Fatal(checkErr)
	}
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// position prints a file position relative to the module root.
func (m *module) position(pos token.Pos) string {
	p := m.fset.Position(pos)
	if rel, err := filepath.Rel(root, p.Filename); err == nil {
		p.Filename = filepath.ToSlash(rel)
	}
	return p.String()
}
