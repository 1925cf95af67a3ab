package analysis

import (
	"go/ast"
	"go/types"
)

// RefEscape checks that pmem.Ref values — raw views into mapped pool
// memory — do not outlive the mapping that produced them. The paper's
// whole point (§2) is that persistent references are ObjectIDs, not
// addresses: a Ref is only a transient decoding of an OID, valid until the
// region is unmapped or the object moves. Three escape routes are flagged:
//
//  1. an exported function or method (on an exported type) returning a
//     Ref: callers outside the package cannot know the view's lifetime;
//  2. a Ref stored into longer-lived storage: a package-level variable or
//     a field of an exported struct type (whether by assignment or
//     composite literal);
//  3. a Ref variable used after a call that invalidates raw views
//     (Heap.Close, Crash, Recover, Tx.Abort) on some path.
//
// Package pmem itself is exempt — it owns the mapping and hands out the
// views. Unexported caches of refs (e.g. a per-operation struct private to
// a package) are allowed; the analyzer only polices the exported surface
// and use-after-invalidation.
var RefEscape = &Analyzer{
	Name: "refescape",
	Doc:  "check that pmem.Ref views do not escape the API surface or outlive heap invalidation points",
	Run:  runRefEscape,
}

func runRefEscape(pass *Pass) error {
	if pass.Pkg.Path() == pmemPath {
		return nil
	}
	decls := funcDecls(pass.Files)
	for _, fd := range decls {
		checkRefReturn(pass, fd)
		hooks := &reHooks{pass: pass}
		WalkFunc(pass.TypesInfo, fd.Body, newREState(), hooks)
	}
	for _, f := range pass.Files {
		checkRefStorage(pass, f)
	}
	return nil
}

// checkRefReturn flags rule 1: Ref-returning exported surface.
func checkRefReturn(pass *Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || fd.Type.Results == nil {
		return
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
		if t != nil && !exportedNamed(t) {
			return // method on an unexported type: not API surface
		}
	}
	for _, res := range fd.Type.Results.List {
		if isRefType(pass.TypesInfo.TypeOf(res.Type)) {
			pass.Reportf(fd.Name.Pos(),
				"exported function %s returns a pmem.Ref, a raw view into mapped pool memory; return the ObjectID and let callers Deref it", fd.Name.Name)
			return
		}
	}
}

// exportedNamed reports whether t (behind pointers) is a named type with an
// exported name.
func exportedNamed(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Exported()
}

// checkRefStorage flags rule 2: Refs written into package-level variables
// or fields of exported struct types.
func checkRefStorage(pass *Pass, f *ast.File) {
	info := pass.TypesInfo
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if !isRefType(info.TypeOf(l)) {
					continue
				}
				switch l := ast.Unparen(l).(type) {
				case *ast.Ident:
					if obj := objOf(info, l); obj != nil && obj.Parent() == pass.Pkg.Scope() {
						pass.Reportf(l.Pos(),
							"pmem.Ref stored in package-level variable %s; a Ref is only valid while the pool stays mapped — store the ObjectID instead", l.Name)
					}
				case *ast.SelectorExpr:
					if sel, ok := info.Selections[l]; ok && sel.Kind() == types.FieldVal && exportedNamed(sel.Recv()) && sel.Obj().Exported() {
						pass.Reportf(l.Pos(),
							"pmem.Ref stored in exported field %s; a Ref is only valid while the pool stays mapped — store the ObjectID instead", types.ExprString(l))
					}
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil || !exportedNamed(t) {
				return true
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				var fieldName string
				var value ast.Expr
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						fieldName, value = id.Name, kv.Value
					}
				} else if i < st.NumFields() {
					fieldName, value = st.Field(i).Name(), el
				}
				if value != nil && isRefType(info.TypeOf(value)) && ast.IsExported(fieldName) {
					pass.Reportf(el.Pos(),
						"pmem.Ref stored in exported field %s of %s; a Ref is only valid while the pool stays mapped — store the ObjectID instead", fieldName, types.TypeString(t, types.RelativeTo(pass.Pkg)))
				}
			}
		}
		return true
	})
}

// reState tracks which local Ref variables are live views and which were
// made stale by an invalidation point on some path (may-analysis).
type reState struct {
	live  map[types.Object]bool
	stale map[types.Object]bool
}

func newREState() *reState {
	return &reState{live: make(map[types.Object]bool), stale: make(map[types.Object]bool)}
}

func (s *reState) Clone() State {
	n := newREState()
	for k := range s.live {
		n.live[k] = true
	}
	for k := range s.stale {
		n.stale[k] = true
	}
	return n
}

// Merge unions both sets: a ref stale on either branch may be stale here.
func (s *reState) Merge(other State) State {
	o := other.(*reState)
	for k := range o.live {
		s.live[k] = true
	}
	for k := range o.stale {
		s.stale[k] = true
	}
	return s
}

type reHooks struct {
	NopHooks
	pass *Pass
}

func (h *reHooks) OnCall(call *ast.CallExpr, st State) State {
	s := st.(*reState)
	info := h.pass.TypesInfo
	if classify(info, call) == kInvalidate {
		for o := range s.live {
			s.stale[o] = true
			delete(s.live, o)
		}
		return s
	}
	// A method call through a stale Ref variable (rule 3).
	if recv := recvExpr(call); recv != nil {
		if id, ok := ast.Unparen(recv).(*ast.Ident); ok && isRefType(info.TypeOf(id)) {
			if obj := objOf(info, id); obj != nil && s.stale[obj] {
				h.pass.Reportf(call.Pos(),
					"pmem.Ref %s used after the heap was closed, crashed, aborted, or recovered; raw views do not survive invalidation — re-Deref the ObjectID", id.Name)
				delete(s.stale, obj) // one report per ref per path
			}
		}
	}
	return s
}

func (h *reHooks) OnAssign(lhs, rhs []ast.Expr, st State) State {
	s := st.(*reState)
	info := h.pass.TypesInfo
	for i, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			continue
		}
		obj := objOf(info, id)
		if obj == nil || !isRefType(obj.Type()) {
			continue
		}
		delete(s.stale, obj)
		s.live[obj] = true
		// Copying a stale ref keeps it stale.
		if len(rhs) == len(lhs) {
			if rid, ok := ast.Unparen(rhs[i]).(*ast.Ident); ok {
				if src := objOf(info, rid); src != nil && s.stale[src] {
					delete(s.live, obj)
					s.stale[obj] = true
				}
			}
		}
	}
	return s
}

func (h *reHooks) OnHavoc(assigned map[types.Object]bool, st State) State {
	s := st.(*reState)
	for o := range assigned {
		delete(s.live, o)
		delete(s.stale, o)
	}
	return s
}
