package analysis

import (
	"go/types"
)

// UnusedExport reports exported identifiers nothing calls: every exported
// func, method, type, var and const of a non-main package that no non-test
// file of the loaded program references. The loader parses no _test.go
// file, so a reference from a test does not count: an accessor only tests
// use is code the tests alone keep alive.
//
// It is the suite's one whole-program check: references are gathered from
// every loaded package before any finding is made, so a run that names one
// package must still load the whole module (Lint does). A method is exempt
// when its receiver, or a type that embeds it, implements an interface that
// declares it — interface dispatch (fmt's String, error's Error) calls it
// without naming it. Struct fields and interface methods are not checked.
// An identifier kept on purpose — a test-helper package's API, a checker
// the proof layer drives, a mutation hook — carries
// `//potlint:allow unusedexport <reason>`.
var UnusedExport = &Analyzer{
	Name:    "unusedexport",
	Doc:     "report exported identifiers that no non-test file references",
	Program: runUnusedExport,
}

func runUnusedExport(passes []*Pass) error {
	used := make(map[types.Object]bool)
	var named []*types.Named
	ifaces := make(map[string][]*types.Interface) // by declared method name
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	var addPkg func(p *types.Package)
	addPkg = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, imp := range p.Imports() {
			addPkg(imp)
		}
	}
	for _, pass := range passes {
		for _, obj := range pass.TypesInfo.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range pass.TypesInfo.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				addIface(it)
			}
		}
		for _, obj := range pass.TypesInfo.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
		addPkg(pass.Pkg)
	}

	for _, pass := range passes {
		if pass.Pkg.Name() == "main" {
			continue
		}
		scope := pass.Pkg.Scope()
		for id, obj := range pass.TypesInfo.Defs {
			if obj == nil || !obj.Exported() || used[obj] {
				continue
			}
			var kind string
			switch obj := obj.(type) {
			case *types.Func:
				kind = "func"
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					if types.IsInterface(recv.Type()) || dispatched(obj, named, ifaces[obj.Name()]) {
						continue
					}
					kind = "method"
				}
			case *types.TypeName:
				kind = "type"
			case *types.Var:
				kind = "var"
			case *types.Const:
				kind = "const"
			}
			if kind == "" || (kind != "method" && obj.Parent() != scope) {
				continue
			}
			pass.Reportf(id.Pos(), "exported %s %s is referenced by no non-test file", kind, obj.Name())
		}
	}
	return nil
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// dispatched reports whether a named type whose method set resolves to m
// (m's receiver, or a type embedding it) implements one of ifaces, so an
// interface call can reach m without naming it.
func dispatched(m *types.Func, named []*types.Named, ifaces []*types.Interface) bool {
	if len(ifaces) == 0 {
		return false
	}
	for _, n := range named {
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			if obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name()); obj != m {
				continue
			}
			for _, it := range ifaces {
				if types.Implements(t, it) {
					return true
				}
			}
		}
	}
	return false
}
