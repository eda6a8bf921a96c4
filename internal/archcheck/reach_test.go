package archcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"
)

// stdInterfaces are the standard-library interfaces the standard library
// calls through by reflection or by its own code: a method that implements
// one is reached with its type even if no file of the module calls it.
var stdInterfaces = [][2]string{
	{"encoding/gob", "GobEncoder"},
	{"encoding/gob", "GobDecoder"},
	{"fmt", "Stringer"},
	{"", "error"},
}

// decl is one package-level declaration of a non-test file: a func, a
// method, a type, or one var or const spec (its names share it).
type decl struct {
	key  string         // "pkg.Name" or "pkg.Type.Method"
	objs []types.Object // what it declares
	refs []types.Object // what it refers to, instantiations mapped to their origin
}

// unreached lists every package-level declaration in a non-test file outside
// bench/ that the program's roots do not reach, by key with its position.
// The roots are main and init in every package, every declaration in
// bench/ (the benchmark harness), the exported API of package mie and every
// declaration named _. A reached declaration reaches what it refers to; a
// reached type also reaches each of its methods that implements an
// interface method reached code calls, or one of stdInterfaces.
func unreached(t *testing.T, m *module) map[string]string {
	var decls []*decl
	of := map[types.Object]*decl{}
	var roots []*decl
	for _, p := range m.sorted() {
		bench := p.path == modulePath+"/bench" || strings.HasPrefix(p.path, modulePath+"/bench/")
		for _, f := range p.files {
			for _, node := range f.Decls {
				for _, d := range split(p, node) {
					decls = append(decls, d)
					for _, obj := range d.objs {
						of[obj] = d
					}
					if bench || isRoot(p, d.objs[0]) {
						roots = append(roots, d)
					}
				}
			}
		}
	}

	reached := map[*decl]bool{}
	var live []*types.Named                   // the reached named non-interface types
	called := map[string][]*types.Interface{} // by method name
	call := func(name string, iface *types.Interface) {
		if !slices.Contains(called[name], iface) {
			called[name] = append(called[name], iface)
		}
	}
	for _, si := range stdInterfaces {
		scope := types.Universe
		if si[0] != "" {
			tp, err := m.std.Import(si[0])
			if err != nil {
				t.Fatal(err)
			}
			scope = tp.Scope()
		}
		iface := scope.Lookup(si[1]).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			call(iface.Method(i).Name(), iface)
		}
	}
	// errors.Is and errors.As walk a chain through an unnamed interface.
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", errType)), false))}, nil)
	unwrap.Complete()
	call("Unwrap", unwrap)

	work := roots
	reach := func(d *decl) {
		if d != nil && !reached[d] {
			reached[d] = true
			work = append(work, d)
		}
	}
	for _, d := range roots {
		reached[d] = true
	}
	for len(work) > 0 {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, obj := range d.objs {
				if tn, ok := obj.(*types.TypeName); ok {
					if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
						live = append(live, named)
					}
				}
			}
			for _, obj := range d.refs {
				reach(of[obj])
				if fn, ok := obj.(*types.Func); ok {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						call(fn.Name(), recv.Type().Underlying().(*types.Interface))
					}
				}
			}
		}
		// A reached type's method is reached through every interface
		// reached code calls that the type, or a pointer to it, implements.
		for _, named := range live {
			for _, typ := range []types.Type{named, types.NewPointer(named)} {
				ms := types.NewMethodSet(typ)
				for i := 0; i < ms.Len(); i++ {
					fn := ms.At(i).Obj().(*types.Func)
					d := of[fn.Origin()]
					if d == nil || reached[d] {
						continue
					}
					for _, iface := range called[fn.Name()] {
						if types.Implements(typ, iface) {
							reach(d)
							break
						}
					}
				}
			}
		}
	}

	out := map[string]string{}
	for _, d := range decls {
		if !reached[d] {
			out[d.key] = m.position(d.objs[0].Pos())
		}
	}
	return out
}

// split turns one top-level declaration of p into decls: a func or method,
// or each spec of a type, var or const group.
func split(p *pkg, node ast.Decl) []*decl {
	refs := func(n ast.Node) []types.Object {
		var out []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := p.info.Uses[id]; obj != nil && obj.Pkg() != nil {
					out = append(out, origin(obj))
				}
			}
			return true
		})
		return out
	}
	switch d := node.(type) {
	case *ast.FuncDecl:
		obj := p.info.Defs[d.Name]
		key := p.short() + "."
		if d.Recv != nil {
			key += receiver(obj).Obj().Name() + "."
		}
		return []*decl{{key: key + d.Name.Name, objs: []types.Object{obj}, refs: refs(d)}}
	case *ast.GenDecl:
		var out []*decl
		for _, spec := range d.Specs {
			var names []*ast.Ident
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names = []*ast.Ident{s.Name}
			case *ast.ValueSpec:
				names = s.Names
			default:
				continue
			}
			dd := &decl{key: p.short() + "." + names[0].Name, refs: refs(spec)}
			for _, id := range names {
				dd.objs = append(dd.objs, p.info.Defs[id])
			}
			out = append(out, dd)
		}
		return out
	}
	return nil
}

// isRoot reports whether obj, declared in p outside bench/, is a root: a func
// main or init, a declaration named _, or package mie's exported API (an
// exported package-level name, or an exported method of an exported type).
func isRoot(p *pkg, obj types.Object) bool {
	fn, _ := obj.(*types.Func)
	method := fn != nil && fn.Type().(*types.Signature).Recv() != nil
	switch {
	case obj.Name() == "_":
		return true
	case fn != nil && !method && (obj.Name() == "main" || obj.Name() == "init"):
		return true
	case p.path != modulePath || !obj.Exported():
		return false
	case method:
		return receiver(fn).Obj().Exported()
	}
	return true
}

// receiver is the named type a method is declared on.
func receiver(obj types.Object) *types.Named {
	typ := obj.Type().(*types.Signature).Recv().Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	return typ.(*types.Named)
}

// origin maps a use of an instantiated generic to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// checkReach fails for every declaration unreached finds that g's seams do
// not name, and for every seam that names nothing unreached finds: a seam
// that production code reaches now, or that is gone, leaves the list.
func checkReach(t *testing.T, m *module, g gate) {
	t.Helper()
	found := unreached(t, m)
	var bad []string
	for key, pos := range found {
		if !seamed(g.seams, key) {
			bad = append(bad, pos+": "+key)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s: %s", b, g.why)
	}
	if len(bad) > 0 {
		t.Logf("%d declarations outside bench/ are not reached from the program's roots", len(bad))
	}
	for seam := range g.seams {
		hit := false
		for key := range found {
			hit = hit || key == seam || strings.HasPrefix(key, seam+".")
		}
		if !hit {
			t.Errorf("seam %s: production code reaches it now, or it is gone; drop its entry", seam)
		}
	}
}

// seamed reports whether key ("pkg.Name" or "pkg.Type.Method") is one of
// seams or lies in a seam package.
func seamed(seams map[string]string, key string) bool {
	if _, ok := seams[key]; ok {
		return true
	}
	for seam := range seams {
		if !strings.Contains(seam, ".") && strings.HasPrefix(key, seam+".") {
			return true
		}
	}
	return false
}
