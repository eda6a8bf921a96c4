package archcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// stdInterfaces are the standard-library interfaces the standard library
// calls through by reflection or by its own code: a method that implements
// one is reached even if no file of the module names it.
var stdInterfaces = [][2]string{
	{"encoding/gob", "GobEncoder"},
	{"encoding/gob", "GobDecoder"},
	{"fmt", "Stringer"},
	{"", "error"},
}

// testOnly lists every exported func, method, type, var or const declared in
// a non-test file under internal/ that no non-test file of the module
// refers to, outside its own declaration. A method also counts as reached
// when its type implements an interface whose method some non-test file
// calls, or one of stdInterfaces.
func testOnly(t *testing.T, m *module) map[string]string {
	used := map[types.Object]bool{}
	type candidate struct {
		key string
		obj types.Object
	}
	var cands []candidate
	for _, p := range m.sorted() {
		internal := strings.HasPrefix(p.path, modulePath+"/internal/")
		for _, f := range p.files {
			for _, decl := range f.Decls {
				own := map[types.Object]bool{}
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					own[obj] = true
					recv := ""
					if d.Recv != nil {
						named := receiver(obj)
						own[named.Obj()] = true
						recv = named.Obj().Name() + "."
					}
					if internal && d.Name.IsExported() {
						cands = append(cands, candidate{p.short() + "." + recv + d.Name.Name, obj})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, id := range names {
							obj := p.info.Defs[id]
							own[obj] = true
							if internal && id.IsExported() {
								cands = append(cands, candidate{p.short() + "." + id.Name, obj})
							}
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := p.info.Uses[id]; obj != nil && !own[obj] {
							used[origin(obj)] = true
						}
					}
					return true
				})
			}
		}
	}

	// The interfaces the program calls through.
	var ifaces []*types.Func
	for obj := range used {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaces = append(ifaces, fn)
			}
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
			ifaces = append(ifaces, iface.Method(i))
		}
	}
	// errors.Is and errors.As walk a chain through an unnamed interface.
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewParam(token.NoPos, nil, "", errType)), false))
	types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete()
	ifaces = append(ifaces, unwrap)

	out := map[string]string{}
	for _, c := range cands {
		if used[c.obj] || implements(c.obj, ifaces) {
			continue
		}
		out[c.key] = m.position(c.obj.Pos())
	}
	return out
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

// implements reports whether obj is a method that satisfies one of ifaces'
// methods for its receiver type or a pointer to it.
func implements(obj types.Object, ifaces []*types.Func) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	named := receiver(fn)
	for _, im := range ifaces {
		if im.Name() != fn.Name() {
			continue
		}
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// checkReach fails for every identifier testOnly finds that g's seams do not
// name, and for every seam that names nothing testOnly finds: a seam that
// production code reaches now, or that is gone, leaves the list.
func checkReach(t *testing.T, m *module, g gate) {
	t.Helper()
	found := testOnly(t, m)
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
		t.Logf("%d identifiers under internal/ are exported for tests alone", len(bad))
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
