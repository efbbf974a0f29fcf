package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports names the exported objects under internal/ that may keep
// test files as their only users. Every entry says why; an entry whose object
// has gone, or has gained a production caller, fails the test.
var testOnlyExports = []struct {
	objects []string
	reason  string
}{
	{[]string{"core.Verify"}, "the certify stage (ROADMAP item 13) will call it; until then the solver tests hold decisions to it"},
	{[]string{"cluster.StartLoopbackWorker", "cluster.Coordinator.OwnerOf"}, "the hermetic in-process cluster that reopt's owner-kill rows run on"},
	{[]string{"sim.Result.Trace", "sim.Result.DecisionTrace"}, "scenario's and lp's suite tests compare runs through these traces"},
	{[]string{"dataplane.RadioScheduler.Share", "dataplane.Fabric.Rules", "dataplane.ComputeUnit.Pinned"}, "ctrlplane's southbound tests read the emulated hardware state through them"},
}

// TestExportsHaveProductionCallers type-checks every non-test package of the
// module and fails on an exported func, type, var, const or method under
// internal/ that no non-test file uses. A method also counts as used when
// its receiver type implements error, fmt.Stringer or an interface that
// non-test code uses, and the interface has a method of that name.
func TestExportsHaveProductionCallers(t *testing.T) {
	prog := loadProgram(t)
	listed := map[string]bool{} // allowlisted name → found
	for _, e := range testOnlyExports {
		for _, o := range e.objects {
			listed[o] = false
		}
	}
	for _, obj := range prog.exported() {
		name := objectName(obj)
		_, ok := listed[name]
		switch {
		case ok && prog.used[obj]:
			t.Errorf("%s is allowlisted as test-only but has a production caller; drop its entry", name)
		case !ok && !prog.used[obj]:
			t.Errorf("%s is exported but no non-test file uses it: delete it, move it into an export_test.go, or give it a production caller", name)
		}
		if ok {
			listed[name] = true
		}
	}
	for name, found := range listed {
		if !found {
			t.Errorf("%s is allowlisted but no longer exists; drop its entry", name)
		}
	}
}

// program is the module's non-test code, type-checked.
type program struct {
	fset     *token.FileSet
	pkgs     map[string]*types.Package // by import path
	internal []*types.Package          // packages under internal/, sorted
	used     map[types.Object]bool
	std      types.Importer
	files    map[string][]*ast.File // by import path
	info     *types.Info
}

// loadProgram parses every non-test Go file of the module (skipping
// testdata and nested modules) and type-checks each package once.
func loadProgram(t *testing.T) *program {
	t.Helper()
	p := &program{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*types.Package{},
		used:  map[types.Object]bool{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	p.std = importer.ForCompiler(p.fset, "gc", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if path != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(p.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := "repro"
		if dir := filepath.Dir(path); dir != "." {
			ip += "/" + filepath.ToSlash(dir)
		}
		p.files[ip] = append(p.files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(p.files))
	for ip := range p.files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := p.Import(ip); err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(ip, "repro/internal/") {
			p.internal = append(p.internal, p.pkgs[ip])
		}
	}
	fmtPkg, err := p.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	p.markUses(types.Universe.Lookup("error").Type(), fmtPkg.Scope().Lookup("Stringer").Type())
	return p
}

// Import checks a module package on first use and hands every other path,
// the standard library's, to the compiler's export data.
func (p *program) Import(path string) (*types.Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := p.files[path]
	if !ok {
		return p.std.Import(path)
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = pkg
	return pkg, nil
}

// markUses records every object a non-test file names, then every method
// that an interface used by non-test code, or one of always, can reach
// dynamically.
func (p *program) markUses(always ...types.Type) {
	ifaces := map[*types.Interface]bool{}
	seen := map[types.Type]bool{}
	var collect func(types.Type)
	collect = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.(type) {
		case *types.Named:
			if it, ok := u.Underlying().(*types.Interface); ok {
				collect(it)
			}
		case *types.Interface:
			if u.IsMethodSet() && u.NumMethods() > 0 {
				ifaces[u] = true
			}
		case *types.Pointer:
			collect(u.Elem())
		case *types.Slice:
			collect(u.Elem())
		case *types.Array:
			collect(u.Elem())
		case *types.Map:
			collect(u.Key())
			collect(u.Elem())
		case *types.Chan:
			collect(u.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					collect(tup.At(i).Type())
				}
			}
		}
	}
	for _, obj := range p.info.Uses {
		p.used[origin(obj)] = true
		collect(obj.Type())
	}
	for _, tv := range p.info.Types {
		collect(tv.Type)
	}
	for _, typ := range always {
		collect(typ)
	}

	for _, pkg := range p.internal {
		for _, n := range namedTypes(pkg) {
			if n.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(n)
			for it := range ifaces {
				if !types.Implements(n, it) && !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, false, pkg, it.Method(i).Name())
					if m != nil {
						p.used[m] = true
					}
				}
			}
		}
	}
}

// exported lists the exported package-level objects and the exported
// methods of every named type declared under internal/.
func (p *program) exported() []types.Object {
	var out []types.Object
	for _, pkg := range p.internal {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				out = append(out, obj)
			}
		}
		for _, n := range namedTypes(pkg) {
			if _, ok := n.Underlying().(*types.Interface); ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() {
					out = append(out, m)
				}
			}
		}
	}
	return out
}

// namedTypes returns the named types a package declares at package level.
func namedTypes(pkg *types.Package) []*types.Named {
	var out []*types.Named
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok {
			out = append(out, n)
		}
	}
	return out
}

// origin maps an instantiated generic func or field back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// objectName spells an object as pkg.Name or pkg.Type.Method, pkg being
// its path under internal/.
func objectName(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), "repro/internal/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			if n, ok := typ.(*types.Named); ok {
				return pkg + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return pkg + "." + obj.Name()
}
