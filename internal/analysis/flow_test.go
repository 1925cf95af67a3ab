package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// The flow-walker edge cases the lock analyzers lean on: loop bodies
// joined with the pre-loop state (a one-pass fixpoint approximation),
// havoc of loop-assigned variables, early returns inside for/switch,
// select joins, defer semantics (no OnCall for the deferred call itself,
// OnCall for an immediately-invoked inner call), and error-path marking.

// parseFunc type-checks src (a complete file) and returns the declaration
// of the named function.
func parseFunc(t *testing.T, src, name string) (*types.Info, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:  make(map[ast.Expr]types.TypeAndValue),
		Defs:   make(map[*ast.Ident]types.Object),
		Uses:   make(map[*ast.Ident]types.Object),
		Scopes: make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return info, fd
		}
	}
	t.Fatalf("no function %s in source", name)
	return nil, nil
}

// heldState is a one-lock must-state: held survives a merge only when
// held on both paths.
type heldState struct{ held bool }

func (s *heldState) Clone() State { c := *s; return &c }
func (s *heldState) Merge(o State) State {
	s.held = s.held && o.(*heldState).held
	return s
}

// trackHooks toggles held on lock()/unlock() calls and records events.
type trackHooks struct {
	NopHooks
	info    *types.Info
	events  []string
	returns []string // "held=<bool> err=<bool>" per OnReturn
}

func (h *trackHooks) calleeName(call *ast.CallExpr) string {
	if f := callee(h.info, call); f != nil {
		return f.Name()
	}
	return ""
}

func (h *trackHooks) OnCall(call *ast.CallExpr, st State) State {
	s := st.(*heldState)
	name := h.calleeName(call)
	switch name {
	case "lock":
		s.held = true
	case "unlock":
		s.held = false
	}
	if name != "" {
		h.events = append(h.events, "call:"+name)
	}
	return s
}

func (h *trackHooks) OnDefer(call *ast.CallExpr, st State) State {
	h.events = append(h.events, "defer")
	return st
}

func (h *trackHooks) OnReturn(_ *ast.ReturnStmt, st State, errPath bool) {
	held := false
	if s, ok := st.(*heldState); ok && s != nil {
		held = s.held
	}
	h.returns = append(h.returns, fmt.Sprintf("held=%v err=%v", held, errPath))
}

const prelude = `package p
func lock()   {}
func unlock() {}
func fail() error { return nil }
`

func walkHeld(t *testing.T, src, name string) (*trackHooks, *heldState) {
	t.Helper()
	info, fd := parseFunc(t, src, name)
	h := &trackHooks{info: info}
	out := WalkFunc(info, fd.Body, &heldState{}, h)
	hs, _ := out.(*heldState)
	return h, hs
}

func TestFlowLoopJoinReachesFixpoint(t *testing.T) {
	// The loop may run zero or more times: a lock released only inside the
	// body must not be considered held after the loop, and a lock acquired
	// only inside must not leak out either.
	h, out := walkHeld(t, prelude+`
func f(n int) {
	lock()
	for i := 0; i < n; i++ {
		unlock()
	}
	_ = n
}`, "f")
	if out == nil || out.held {
		t.Fatalf("after a loop that may unlock, held must merge to false; events %v", h.events)
	}

	_, out2 := walkHeld(t, prelude+`
func g(n int) {
	for i := 0; i < n; i++ {
		lock()
	}
	_ = n
}`, "g")
	if out2 == nil || out2.held {
		t.Fatalf("a lock acquired only inside a may-not-run loop must not be held after it")
	}

	// Balanced loop body: converges to not-held in one pass.
	_, out3 := walkHeld(t, prelude+`
func h(n int) {
	for i := 0; i < n; i++ {
		lock()
		unlock()
	}
	_ = n
}`, "h")
	if out3 == nil || out3.held {
		t.Fatalf("balanced loop should fall through not-held")
	}
}

func TestFlowLoopHavocsAssignedVars(t *testing.T) {
	info, fd := parseFunc(t, `package p
func f(n int) {
	x := 1
	for i := 0; i < n; i++ {
		x = 2
	}
	_ = x
}`, "f")
	var havocked []string
	hooks := &havocHooks{names: &havocked}
	WalkFunc(info, fd.Body, &heldState{}, hooks)
	joined := strings.Join(havocked, ",")
	if !strings.Contains(joined, "x") || !strings.Contains(joined, "i") {
		t.Fatalf("loop entry must havoc every variable the loop assigns; got %q", joined)
	}
}

type havocHooks struct {
	NopHooks
	names *[]string
}

func (h *havocHooks) OnHavoc(assigned map[types.Object]bool, st State) State {
	for o := range assigned {
		*h.names = append(*h.names, o.Name())
	}
	return st
}

func TestFlowEarlyReturnInFor(t *testing.T) {
	h, out := walkHeld(t, prelude+`
func f(n int) int {
	lock()
	for i := 0; i < n; i++ {
		if i == 3 {
			return i
		}
		unlock()
	}
	return n
}`, "f")
	want := []string{"held=true err=false", "held=false err=false"}
	if fmt.Sprint(h.returns) != fmt.Sprint(want) {
		t.Fatalf("returns = %v, want %v", h.returns, want)
	}
	if out != nil {
		t.Fatalf("both paths return; fall-through must be nil")
	}
}

func TestFlowEarlyReturnInSwitch(t *testing.T) {
	h, _ := walkHeld(t, prelude+`
func f(k int) int {
	lock()
	switch k {
	case 0:
		return k
	case 1:
		unlock()
	}
	return k + 1
}`, "f")
	// First return holds the lock; the final return joins the unlock case
	// with the no-case fall-through, so held demotes to false.
	want := []string{"held=true err=false", "held=false err=false"}
	if fmt.Sprint(h.returns) != fmt.Sprint(want) {
		t.Fatalf("returns = %v, want %v", h.returns, want)
	}
}

func TestFlowSelectJoins(t *testing.T) {
	_, out := walkHeld(t, prelude+`
func f(c chan int) {
	lock()
	select {
	case <-c:
		unlock()
	default:
	}
	_ = c
}`, "f")
	if out == nil || out.held {
		t.Fatalf("select join must demote held when one arm unlocks")
	}
}

func TestFlowDeferSemantics(t *testing.T) {
	// `defer m.unlockM()` must not fire OnCall (it runs at exit), but
	// `defer acquire()()` walks the inner acquire() as an ordinary
	// expression, and both defers fire OnDefer.
	h, _ := walkHeld(t, prelude+`
type mu struct{}
func (m *mu) lockM()   {}
func (m *mu) unlockM() {}
func acquire() func() { return func() {} }
func f(m *mu) {
	m.lockM()
	defer m.unlockM()
	defer acquire()()
}`, "f")
	joined := strings.Join(h.events, ",")
	if strings.Contains(joined, "call:unlockM") {
		t.Fatalf("deferred call must not fire OnCall at the defer site; events %v", h.events)
	}
	if !strings.Contains(joined, "call:acquire") {
		t.Fatalf("inner call of an immediately-invoked defer must fire OnCall; events %v", h.events)
	}
	if strings.Count(joined, "defer") != 2 {
		t.Fatalf("both defer statements must fire OnDefer; events %v", h.events)
	}
}

func TestFlowErrPathMarking(t *testing.T) {
	h, _ := walkHeld(t, prelude+`
func f() error {
	if err := fail(); err != nil {
		return err
	}
	return nil
}`, "f")
	want := []string{"held=false err=true", "held=false err=false"}
	if fmt.Sprint(h.returns) != fmt.Sprint(want) {
		t.Fatalf("returns = %v, want %v", h.returns, want)
	}
}

func TestFlowRangeHookOrder(t *testing.T) {
	info, fd := parseFunc(t, `package p
func f(xs []int) {
	for i, v := range xs {
		_, _ = i, v
	}
}`, "f")
	var order []string
	WalkFunc(info, fd.Body, &heldState{}, &orderHooks{order: &order})
	joined := strings.Join(order, ",")
	// The trailing events come from the body's own assignment; the range
	// statement itself must contribute havoc, then range, then assign.
	if !strings.HasPrefix(joined, "havoc,range,assign") {
		t.Fatalf("range statement must fire havoc, then range, then assign; got %q", joined)
	}
}

type orderHooks struct {
	NopHooks
	order *[]string
}

func (h *orderHooks) OnHavoc(_ map[types.Object]bool, st State) State {
	*h.order = append(*h.order, "havoc")
	return st
}
func (h *orderHooks) OnRange(_, _, _ ast.Expr, st State) State {
	*h.order = append(*h.order, "range")
	return st
}
func (h *orderHooks) OnAssign(_, _ []ast.Expr, st State) State {
	*h.order = append(*h.order, "assign")
	return st
}
