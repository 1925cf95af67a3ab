package analysis

import (
	"go/ast"
	"go/types"
)

// PersistBeforePublish checks the publish ordering of the paper's §2.2
// linking idiom (`temp->next = new_oid`): an ObjectID freshly allocated
// by a function may only be stored into another persistent object — made
// reachable — once one of the following holds on the path:
//
//   - the referenced object was made durable first (Heap.Persist /
//     persistNoFence on it, with no intervening writes), or
//   - the link target is covered by the undo log (Ctx.Touch/Tx.AddRange on
//     the target or the target object is itself fresh), in which case
//     transaction commit persists both sides before the log is truncated.
//
// Otherwise a crash between the publishing store becoming durable and the
// object's contents becoming durable leaves a reachable object with
// garbage contents.
//
// Only locally allocated OIDs are tracked (parameters and loaded OIDs
// have unknown durability and are not checked), and only stores through
// tracked refs or Cell.Set are considered — the same under-approximations
// as touchbeforestore.
var PersistBeforePublish = &Analyzer{
	Name: "persistbeforepublish",
	Doc:  "check that a fresh ObjectID is durable or undo-logged before being linked into a persistent object",
	Run:  runPersistBeforePublish,
}

// ppState layers the persisted set over the touch/fresh/ref tracking of
// tbsState.
type ppState struct {
	tbs       *tbsState
	persisted map[string]map[types.Object]bool
}

func newPPState() *ppState {
	return &ppState{tbs: newTBSState(), persisted: make(map[string]map[types.Object]bool)}
}

func (s *ppState) Clone() State {
	n := &ppState{tbs: s.tbs.Clone().(*tbsState), persisted: make(map[string]map[types.Object]bool, len(s.persisted))}
	for k, v := range s.persisted {
		n.persisted[k] = v
	}
	return n
}

func (s *ppState) Merge(other State) State {
	o := other.(*ppState)
	s.tbs.Merge(o.tbs)
	for k := range s.persisted {
		if _, ok := o.persisted[k]; !ok {
			delete(s.persisted, k)
		}
	}
	return s
}

func (s *ppState) invalidate(objs map[types.Object]bool) {
	s.tbs.invalidate(objs)
	for k, deps := range s.persisted {
		for d := range deps {
			if objs[d] {
				delete(s.persisted, k)
				break
			}
		}
	}
}

type ppHooks struct {
	NopHooks
	pass *Pass
	tbs  *tbsHooks // reused ref/fresh tracking on the embedded tbsState
}

func (h *ppHooks) OnCall(call *ast.CallExpr, st State) State {
	s := st.(*ppState)
	info := h.pass.TypesInfo
	switch classify(info, call) {
	case kTouch:
		if len(call.Args) > 0 {
			c := canonOID(info, call.Args[0])
			s.tbs.touched[c] = exprDeps(info, call.Args[0])
		}
	case kPersist, kPersistNoFence:
		if len(call.Args) > 0 {
			c := canonOID(info, call.Args[0])
			s.persisted[c] = exprDeps(info, call.Args[0])
		}
	case kRefStore:
		h.checkStore(call, s)
	case kCellSet:
		h.checkPublish(call, s, cellSetValue(call), cellTouchedKey(info, call))
	}
	return s
}

// cellSetValue returns the OID argument of Cell.Set.
func cellSetValue(call *ast.CallExpr) ast.Expr {
	if len(call.Args) > 0 {
		return call.Args[0]
	}
	return nil
}

// cellTouchedKey returns the canonical touch key covering a Cell.Set
// target ("<cell>.OID()"), or "".
func cellTouchedKey(info *types.Info, call *ast.CallExpr) string {
	if recv := recvExpr(call); recv != nil {
		return canonOID(info, recv) + ".OID()"
	}
	return ""
}

// checkStore handles Ref.Store64/WriteBytes: a write clears the target's
// persisted status, and a Store64 of an OID value is a publish.
func (h *ppHooks) checkStore(call *ast.CallExpr, s *ppState) {
	info := h.pass.TypesInfo
	recv := recvExpr(call)
	if recv == nil {
		return
	}
	r, tracked := h.tbs.refOf(recv, s.tbs)
	if tracked {
		delete(s.persisted, r.src) // contents changed since last persist
	}
	// Store64(off, value, dep): the published OID rides in the value.
	f := callee(info, call)
	if f == nil || f.Name() != "Store64" || len(call.Args) < 2 {
		return
	}
	if !tracked || r.fresh || r.direct {
		// Unknown target (skip), or writes into a not-yet-reachable or
		// library-internal object (exempt: the link itself only becomes
		// meaningful when that object is published in turn).
		return
	}
	targetTouched := ""
	if _, ok := s.tbs.touched[r.src]; ok {
		targetTouched = r.src
	}
	h.publish(call, s, call.Args[1], targetTouched != "")
}

// checkPublish handles Cell.Set: anchors are always reachable, so the
// exemptions are Touch of the cell or durability of the stored OID.
func (h *ppHooks) checkPublish(call *ast.CallExpr, s *ppState, value ast.Expr, touchKey string) {
	if value == nil {
		return
	}
	_, touched := s.tbs.touched[touchKey]
	h.publish(call, s, value, touched)
}

// publish reports a store of a fresh, non-durable, non-logged OID.
func (h *ppHooks) publish(call *ast.CallExpr, s *ppState, value ast.Expr, targetCovered bool) {
	info := h.pass.TypesInfo
	x := oidOperand(info, value)
	if x == nil {
		return
	}
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return
	}
	obj := objOf(info, id)
	if obj == nil || !s.tbs.fresh[obj] {
		return // unknown provenance: not checked
	}
	if targetCovered {
		return // undo-logged target: commit persists both sides
	}
	if _, ok := s.persisted[canonOID(info, x)]; ok {
		return
	}
	h.pass.Reportf(call.Pos(),
		"ObjectID %s is published before its contents are durable: Persist(%s, ...) first, or snapshot the link target with Ctx.Touch/Tx.AddRange", id.Name, id.Name)
}

func (h *ppHooks) OnAssign(lhs, rhs []ast.Expr, st State) State {
	s := st.(*ppState)
	info := h.pass.TypesInfo
	assigned := make(map[types.Object]bool)
	for _, l := range lhs {
		if id, ok := l.(*ast.Ident); ok {
			if obj := objOf(info, id); obj != nil {
				assigned[obj] = true
			}
		}
	}
	for k, deps := range s.persisted {
		for d := range deps {
			if assigned[d] {
				delete(s.persisted, k)
				break
			}
		}
	}
	s.tbs = h.tbs.OnAssign(lhs, rhs, s.tbs).(*tbsState)
	return s
}

func (h *ppHooks) OnHavoc(assigned map[types.Object]bool, st State) State {
	s := st.(*ppState)
	s.invalidate(assigned)
	return s
}

func runPersistBeforePublish(pass *Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		hooks := &ppHooks{pass: pass}
		hooks.tbs = &tbsHooks{pass: pass}
		WalkFunc(pass.TypesInfo, fd.Body, newPPState(), hooks)
	}
	return nil
}
