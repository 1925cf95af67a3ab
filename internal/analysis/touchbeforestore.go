package analysis

import (
	"go/ast"
	"go/types"
)

// TouchBeforeStore checks the undo-log discipline of transactional code
// (paper §2.1.4): inside a function that operates under a pds.Ctx — where
// a transaction may be active — every in-place store to a persistent
// object must be preceded by a snapshot of that object (Ctx.Touch or
// Tx.AddRange), so an abort or crash can roll the mutation back.
//
// Stores are exempt when the target object is fresh (allocated by this
// function through Ctx.Alloc/Heap.Alloc/Tx.Alloc: a crash rolls back
// the allocation itself, and the object is unreachable until published)
// or reached through Heap.DirectRef (library-internal metadata with its
// own write-ahead protocol).
//
// Matching is by canonical source expression: Touch(cur.OID(), n) covers
// stores through a Ref obtained from Deref(cur.OID(), ...), and
// Touch(x.FieldAt(off), n) covers stores through Deref(x, ...). A
// function that snapshots one of its OID parameters on every non-error
// path exports that as a fact, so calls to it count as touches at call
// sites in other functions and packages. Stores through untracked refs
// (values from maps, fields, or helper returns) are not checked.
var TouchBeforeStore = &Analyzer{
	Name: "touchbeforestore",
	Doc:  "check that transactional code snapshots objects (Ctx.Touch/Tx.AddRange) before storing to them",
	Run:  runTouchBeforeStore,
}

// tbsFact marks a function that touches some of its OID parameters on
// every non-error path, making calls to it count as touches.
type tbsFact struct {
	// ParamIndices are the indices (into the flattened parameter list)
	// of the OID parameters the function always touches.
	ParamIndices []int
}

// tbsRef describes what a tracked Ref variable views.
type tbsRef struct {
	src    string // canonical OID expression passed to Deref
	deps   map[types.Object]bool
	fresh  bool // the OID came from an Alloc in this function
	direct bool // DirectRef: library metadata, exempt
}

// tbsState is the abstract state: which canonical OID expressions are
// snapshotted, which OID variables are fresh, and what each Ref variable
// views.
type tbsState struct {
	touched map[string]map[types.Object]bool
	fresh   map[types.Object]bool
	refs    map[types.Object]tbsRef
}

func newTBSState() *tbsState {
	return &tbsState{
		touched: make(map[string]map[types.Object]bool),
		fresh:   make(map[types.Object]bool),
		refs:    make(map[types.Object]tbsRef),
	}
}

func (s *tbsState) Clone() State {
	n := newTBSState()
	for k, v := range s.touched {
		n.touched[k] = v
	}
	for k, v := range s.fresh {
		n.fresh[k] = v
	}
	for k, v := range s.refs {
		n.refs[k] = v
	}
	return n
}

// Merge keeps only facts common to both branches.
func (s *tbsState) Merge(other State) State {
	o := other.(*tbsState)
	for k := range s.touched {
		if _, ok := o.touched[k]; !ok {
			delete(s.touched, k)
		}
	}
	for k := range s.fresh {
		if !o.fresh[k] {
			delete(s.fresh, k)
		}
	}
	for k, v := range s.refs {
		ov, ok := o.refs[k]
		if !ok || ov.src != v.src || ov.fresh != v.fresh || ov.direct != v.direct {
			delete(s.refs, k)
		}
	}
	return s
}

// invalidate drops facts that depend on any of the given variables.
func (s *tbsState) invalidate(objs map[types.Object]bool) {
	if len(objs) == 0 {
		return
	}
	for k, deps := range s.touched {
		for d := range deps {
			if objs[d] {
				delete(s.touched, k)
				break
			}
		}
	}
	for o := range objs {
		delete(s.fresh, o)
		delete(s.refs, o)
	}
	for k, r := range s.refs {
		for d := range r.deps {
			if objs[d] {
				delete(s.refs, k)
				break
			}
		}
	}
}

// tbsHooks drives one function walk. In the fact pass report is nil and
// only exit states are collected.
type tbsHooks struct {
	NopHooks
	pass   *Pass
	report bool
	exits  []*tbsState
}

func (h *tbsHooks) info() *types.Info { return h.pass.TypesInfo }

func (h *tbsHooks) OnCall(call *ast.CallExpr, st State) State {
	s := st.(*tbsState)
	info := h.info()
	switch classify(info, call) {
	case kTouch:
		if len(call.Args) > 0 {
			c := canonOID(info, call.Args[0])
			s.touched[c] = exprDeps(info, call.Args[0])
		}
	case kRefStore:
		h.checkRefStore(call, s)
	case kCellSet:
		h.checkCellSet(call, s)
	default:
		// A call to a function known to touch some of its OID
		// parameters counts as touching the corresponding arguments.
		if f := callee(info, call); f != nil {
			if fact, ok := h.pass.ImportObjectFact(f).(*tbsFact); ok {
				for _, idx := range fact.ParamIndices {
					if idx < len(call.Args) {
						c := canonOID(info, call.Args[idx])
						s.touched[c] = exprDeps(info, call.Args[idx])
					}
				}
			}
		}
	}
	return s
}

// refOf resolves the Ref a store goes through: a tracked variable, or an
// inline Deref/DirectRef call. ok=false means the ref is untracked and
// the store is skipped (documented under-approximation).
func (h *tbsHooks) refOf(e ast.Expr, s *tbsState) (tbsRef, bool) {
	info := h.info()
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if obj := objOf(info, e); obj != nil {
			r, ok := s.refs[obj]
			return r, ok
		}
	case *ast.CallExpr:
		switch classify(info, e) {
		case kDeref:
			if len(e.Args) > 0 {
				return h.derefInfo(e.Args[0], s), true
			}
		case kDirectRef:
			return tbsRef{direct: true}, true
		}
	}
	return tbsRef{}, false
}

// derefInfo builds the tracking record for a Deref(oidExpr, ...) result.
func (h *tbsHooks) derefInfo(oidExpr ast.Expr, s *tbsState) tbsRef {
	info := h.info()
	r := tbsRef{src: canonOID(info, oidExpr), deps: exprDeps(info, oidExpr)}
	if id, ok := ast.Unparen(oidExpr).(*ast.Ident); ok {
		if obj := objOf(info, id); obj != nil && s.fresh[obj] {
			r.fresh = true
		}
	}
	return r
}

func (h *tbsHooks) checkRefStore(call *ast.CallExpr, s *tbsState) {
	recv := recvExpr(call)
	if recv == nil {
		return
	}
	r, ok := h.refOf(recv, s)
	if !ok || r.fresh || r.direct {
		return
	}
	if _, ok := s.touched[r.src]; ok {
		return
	}
	if h.report {
		h.pass.Reportf(call.Pos(),
			"store to persistent object %s without a preceding Ctx.Touch/Tx.AddRange snapshot; an abort or crash cannot roll this mutation back", r.src)
	}
}

func (h *tbsHooks) checkCellSet(call *ast.CallExpr, s *tbsState) {
	recv := recvExpr(call)
	if recv == nil {
		return
	}
	key := canonOID(h.info(), recv) + ".OID()"
	if _, ok := s.touched[key]; ok {
		return
	}
	if h.report {
		h.pass.Reportf(call.Pos(),
			"Cell.Set on %s without a preceding Ctx.Touch of the anchor cell; an abort or crash cannot restore the anchor", types.ExprString(recv))
	}
}

func (h *tbsHooks) OnAssign(lhs, rhs []ast.Expr, st State) State {
	s := st.(*tbsState)
	info := h.info()
	assigned := make(map[types.Object]bool)
	for _, l := range lhs {
		if id, ok := l.(*ast.Ident); ok {
			if obj := objOf(info, id); obj != nil {
				assigned[obj] = true
			}
		}
	}
	s.invalidate(assigned)

	// Bind the interesting producers: x, _ := Deref/DirectRef/Alloc, and
	// ref-to-ref copies.
	if len(rhs) == 1 && len(lhs) >= 1 {
		id, ok := lhs[0].(*ast.Ident)
		if !ok {
			return s
		}
		obj := objOf(info, id)
		if obj == nil {
			return s
		}
		switch r := ast.Unparen(rhs[0]).(type) {
		case *ast.CallExpr:
			switch classify(info, r) {
			case kDeref:
				if len(r.Args) > 0 {
					s.refs[obj] = h.derefInfo(r.Args[0], s)
				}
			case kDirectRef:
				s.refs[obj] = tbsRef{direct: true}
			case kAlloc:
				s.fresh[obj] = true
			}
		case *ast.Ident:
			if src := objOf(info, r); src != nil {
				if ri, ok := s.refs[src]; ok {
					s.refs[obj] = ri
				}
				if s.fresh[src] {
					s.fresh[obj] = true
				}
			}
		}
	} else if len(rhs) == len(lhs) {
		// Parallel assignment: only propagate fresh/ref bits per pair.
		for i := range lhs {
			s = h.OnAssign(lhs[i:i+1], rhs[i:i+1], s).(*tbsState)
		}
	}
	return s
}

func (h *tbsHooks) OnHavoc(assigned map[types.Object]bool, st State) State {
	s := st.(*tbsState)
	s.invalidate(assigned)
	return s
}

func (h *tbsHooks) OnReturn(_ *ast.ReturnStmt, st State, errPath bool) {
	if !errPath && st != nil {
		h.exits = append(h.exits, st.(*tbsState).Clone().(*tbsState))
	}
}

func runTouchBeforeStore(pass *Pass) error {
	decls := funcDecls(pass.Files)
	// Fact pass first (twice, so intra-package helper facts propagate one
	// call level), then the reporting pass.
	for i := 0; i < 2; i++ {
		for _, fd := range decls {
			tbsWalk(pass, fd, false)
		}
	}
	for _, fd := range decls {
		tbsWalk(pass, fd, true)
	}
	return nil
}

// tbsWalk analyzes one function if it operates under a Ctx; in the fact
// pass it exports which OID parameters are always touched.
func tbsWalk(pass *Pass, fd *ast.FuncDecl, report bool) {
	if ctxParam(pass.TypesInfo, fd) == nil {
		return
	}
	hooks := &tbsHooks{pass: pass, report: report}
	out := WalkFunc(pass.TypesInfo, fd.Body, newTBSState(), hooks)
	if report {
		return
	}
	if out != nil {
		hooks.exits = append(hooks.exits, out.(*tbsState))
	}
	if len(hooks.exits) == 0 {
		return
	}
	// Intersect the touched sets over all non-error exits.
	common := hooks.exits[0].touched
	for _, e := range hooks.exits[1:] {
		for k := range common {
			if _, ok := e.touched[k]; !ok {
				delete(common, k)
			}
		}
	}
	var fact tbsFact
	for i, p := range flatParams(pass.TypesInfo, fd) {
		if isOIDType(p.Type()) {
			if _, ok := common[p.Name()]; ok {
				fact.ParamIndices = append(fact.ParamIndices, i)
			}
		}
	}
	if len(fact.ParamIndices) > 0 {
		if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			pass.ExportObjectFact(obj, &fact)
		}
	}
}

// flatParams returns the function's parameters in declaration order.
func flatParams(info *types.Info, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}
