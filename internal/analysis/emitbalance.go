package analysis

import (
	"go/ast"
	"go/types"
)

// EmitBalance checks the CLWB/SFENCE pairing (paper §2.1.2): a CLWB only
// *starts* a write-back; durability is not ordered until an SFENCE
// retires. A function that emits cache-line write-backs and can return
// without a trailing fence silently hands its caller an unordered persist.
//
// The contract the analyzer enforces:
//
//   - a path that emits CLWB (Emitter.CLWB, or a *NoFence helper, or a
//     call to a function known to leak unfenced CLWBs) must reach SFence
//     (or Heap.Persist, which fences internally) before a non-error
//     return;
//   - functions whose name contains "NoFence" declare the unfenced
//     convention: they are exempt from reporting, but calls to them count
//     as emitting, so their callers inherit the obligation (tracked as a
//     fact across functions and packages);
//   - error-path returns are exempt: by convention a helper that fails
//     reports the error before reaching its emission tail;
//   - `if flag { ...SFence() }` guards are trusted when the then-branch
//     fences: the flag is assumed to be set exactly when CLWBs are
//     outstanding (the Tx.Commit pattern).
var EmitBalance = &Analyzer{
	Name: "emitbalance",
	Doc:  "check that every CLWB-emitting path fences (SFence/Persist) before returning, unless named *NoFence",
	Run:  runEmitBalance,
}

// ebFact marks a function that can return with unfenced CLWBs
// outstanding; calls to it count as CLWB emission at the call site.
type ebFact struct{}

// ebState: whether unfenced CLWBs may be outstanding on this path.
type ebState struct{ out bool }

func (s *ebState) Clone() State { c := *s; return &c }

// Merge is a may-analysis: outstanding on either branch is outstanding.
func (s *ebState) Merge(other State) State {
	s.out = s.out || other.(*ebState).out
	return s
}

type ebHooks struct {
	NopHooks
	pass   *Pass
	report bool
	leaked bool
}

func (h *ebHooks) OnCall(call *ast.CallExpr, st State) State {
	s := st.(*ebState)
	info := h.pass.TypesInfo
	switch classify(info, call) {
	case kCLWB, kPersistNoFence:
		s.out = true
	case kSFence, kPersist: // SFENCE orders all prior CLWBs, Persist fences internally
		s.out = false
	default:
		// Callees known (by fact) to leak unfenced CLWBs count as emission
		// here. The *NoFence naming convention needs no special case: a
		// NoFence helper that actually emits exports the fact itself.
		if f := callee(info, call); f != nil && h.pass.ImportObjectFact(f) != nil {
			s.out = true
		}
	}
	return s
}

func (h *ebHooks) OnReturn(ret *ast.ReturnStmt, st State, errPath bool) {
	if errPath || st == nil || !st.(*ebState).out {
		return
	}
	h.leaked = true
	if h.report {
		h.pass.Reportf(ret.Pos(),
			"return with emitted CLWBs not yet fenced; call SFence (or Heap.Persist) before returning, or adopt the NoFence naming convention so callers owe the fence")
	}
}

// AfterIf trusts the flag-guarded fence idiom: when CLWBs are outstanding
// and `if flag { ... SFence ... }` clears them in the then-branch with no
// else, the flag is assumed to track emission exactly (the Tx.Commit pattern),
// so the join is the fenced state.
func (h *ebHooks) AfterIf(stmt *ast.IfStmt, pre, thenSt, elseSt State) (State, bool) {
	if stmt.Else != nil || thenSt == nil {
		return nil, false
	}
	id, ok := ast.Unparen(stmt.Cond).(*ast.Ident)
	if !ok {
		return nil, false
	}
	t, okT := h.pass.TypesInfo.TypeOf(id).(*types.Basic)
	if !okT || t.Kind() != types.Bool {
		return nil, false
	}
	if pre.(*ebState).out && !thenSt.(*ebState).out {
		return thenSt, true
	}
	return nil, false
}

func runEmitBalance(pass *Pass) error {
	decls := funcDecls(pass.Files)
	// Fact fixpoint: leaking functions make their callers leak, so iterate
	// until no new facts appear (bounded by the call-chain depth).
	for i := 0; i < 4; i++ {
		changed := false
		for _, fd := range decls {
			if ebWalk(pass, fd, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, fd := range decls {
		if !isNoFenceName(fd.Name.Name) {
			ebWalk(pass, fd, true)
		}
	}
	return nil
}

// ebWalk analyzes one function; in the fact pass (report=false) it exports
// the leak fact and reports whether a new fact appeared.
func ebWalk(pass *Pass, fd *ast.FuncDecl, report bool) bool {
	hooks := &ebHooks{pass: pass, report: report}
	out := WalkFunc(pass.TypesInfo, fd.Body, &ebState{}, hooks)
	if out != nil && out.(*ebState).out {
		hooks.leaked = true
		if report {
			pass.Reportf(fd.Body.Rbrace,
				"function end with emitted CLWBs not yet fenced; call SFence (or Heap.Persist) before returning, or adopt the NoFence naming convention so callers owe the fence")
		}
	}
	if report || !hooks.leaked {
		return false
	}
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok || pass.ImportObjectFact(obj) != nil {
		return false
	}
	pass.ExportObjectFact(obj, &ebFact{})
	return true
}
