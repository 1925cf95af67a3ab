package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockOrder enforces the shard locking protocol:
//
//  1. Shard (pool) locks are acquired one set at a time. Holding any shard
//     lock while acquiring another — directly, through a scoped helper
//     (View/Update/Tx), or through a callee that acquires one — risks the
//     ABBA deadlock the ascending-order helpers exist to prevent; multi-
//     shard sets must go through LockShardMask / the scoped helpers, whose
//     ascending iteration the analyzer trusts (their loops acquire many
//     locks under a single ordered discipline).
//  2. That trust is checked, not assumed: a loop that locks sharded state
//     by values drawn from a []int shard set must draw them from a set
//     that is sorted and deduplicated. The analyzer tracks []int
//     provenance through the flow: a slice is "sorted" after sort.Ints (and
//     friends) or when produced by a function whose summary says it returns
//     a sorted []int (Sharded.shardSet); ranging over an unsorted
//     module-produced []int and locking on the drawn value is flagged. A
//     function that locks on values drawn from a []int parameter
//     (Sharded.lockShards) exports a "needs sorted argument" fact instead,
//     enforced at its call sites — interprocedurally, through the
//     FactStore. Range keys and plain loop induction variables index
//     ascending by construction and are allowed.
//  3. Direct sync.Mutex/RWMutex operations on sharded state (a mutex drawn
//     from a slice, or a mutex field of a slice element) are only allowed
//     inside the owning type's locking helpers (methods of the owner whose
//     name contains "lock"); everywhere else the ordered helpers must be
//     used.
//
// The analyzer is interprocedural through Summaries: a call to a function
// whose summary acquires locks counts as that acquisition at the call
// site. Balanced callees (acquire + release internally, like KV.Get) also
// count while locks are held — calling into a self-locking function while
// holding a shard lock is a self-deadlock on the same shard.
var LockOrder = &Analyzer{
	Name:     "lockorder",
	Doc:      "check shard/pool lock ordering: one shard set at a time, shard sets sorted before acquisition, no direct mutex ops on sharded state outside locking helpers",
	Requires: []*Analyzer{Summaries},
	Run:      runLockOrder,
}

// loState counts shard locks held; pending holds unlock-closure variables
// that release them when invoked.
type loState struct {
	shard   int
	pending map[types.Object]bool
}

func newLoState() *loState { return &loState{pending: make(map[types.Object]bool)} }

func (s *loState) Clone() State {
	c := &loState{shard: s.shard, pending: make(map[types.Object]bool, len(s.pending))}
	for k := range s.pending {
		c.pending[k] = true
	}
	return c
}

// Merge joins with may-semantics: a lock held on either path is treated as
// held (max), so a post-branch acquisition is checked against the worst
// path.
func (s *loState) Merge(other State) State {
	o := other.(*loState)
	s.shard = max(s.shard, o.shard)
	for k := range o.pending {
		s.pending[k] = true
	}
	return s
}

func runLockOrder(pass *Pass) error {
	decls := funcDecls(pass.Files)
	for _, fd := range decls {
		checkDirectMuOps(pass, fd)
		WalkFunc(pass.TypesInfo, fd.Body, newLoState(), &loHooks{pass: pass})
	}
	// Rule 2. Rounds 0–1 collect needs-sorted parameter facts (two rounds
	// so a fact can propagate one level of param-to-param forwarding within
	// the package); round 2 reports. Cross-package facts are already final:
	// packages run in dependency order.
	for round := 0; round < 3; round++ {
		for _, fd := range decls {
			h := &ssHooks{
				pass:   pass,
				fd:     fd,
				report: round == 2,
				params: paramIndexes(pass.TypesInfo, fd),
			}
			WalkFunc(pass.TypesInfo, fd.Body, newSsState(), h)
			h.exportNeeds()
		}
	}
	return nil
}

// checkDirectMuOps flags direct mutex operations on sharded state outside
// the owner type's locking helpers (rule 3). A flat scan, not flow: the
// rule is about where the code lives, not about path state.
func checkDirectMuOps(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		k := classify(info, call)
		if k != kMuLock && k != kMuUnlock {
			return true
		}
		t, ok := shardedMuTarget(info, call)
		if !ok || t.owner == nil {
			return true
		}
		if isLockingHelperOf(info, fd, t.owner) {
			return true
		}
		pass.Reportf(call.Pos(), "direct mutex operation on sharded state of %s outside its locking helpers; use the ordered Lock*/scoped helpers", t.owner.Obj().Name())
		return true
	})
}

// isLockingHelperOf reports whether fd is a method of owner whose name
// marks it as a locking helper (contains "lock", case-insensitively:
// LockPool, lockShards, Unlock, RLock, ...).
func isLockingHelperOf(info *types.Info, fd *ast.FuncDecl, owner *types.Named) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() != owner.Obj() {
		return false
	}
	return strings.Contains(strings.ToLower(fd.Name.Name), "lock")
}

type loHooks struct {
	NopHooks
	pass *Pass
}

func (h *loHooks) OnCall(call *ast.CallExpr, st State) State {
	s := st.(*loState)
	info := h.pass.TypesInfo
	switch classify(info, call) {
	case kShardLock, kShardLockOrdered:
		h.checkShardAcquire(call, s)
		s.shard++
	case kShardScoped:
		h.checkShardAcquire(call, s) // acquires (and releases) internally
	case kShardUnlock, kShardUnlockOrdered:
		s.release()
	case kMuLock:
		if _, ok := shardedMuTarget(info, call); ok {
			// Inside the ordered helpers a loop acquires many shard locks
			// under one discipline; the loop body is walked once, so this
			// still counts a single ordered acquisition.
			h.checkShardAcquire(call, s)
			s.shard++
		}
	case kMuUnlock:
		if _, ok := shardedMuTarget(info, call); ok {
			s.release()
		}
	case kOther:
		// An invoked unlock closure releases its locks.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if o := objOf(info, id); o != nil && s.pending[o] {
				delete(s.pending, o)
				s.release()
				return s
			}
		}
		// Interprocedural: the callee's summary stands in for its body.
		if f := callee(info, call); f != nil {
			if sum := h.pass.Summary(f); sum != nil {
				switch sum.ShardEffect {
				case LockAcquires:
					h.checkShardAcquire(call, s)
					s.shard++
				case LockBalanced:
					h.checkShardAcquire(call, s)
				case LockReleases:
					s.release()
				}
			}
		}
	}
	return s
}

func (s *loState) release() {
	if s.shard > 0 {
		s.shard--
	}
}

func (h *loHooks) checkShardAcquire(call *ast.CallExpr, s *loState) {
	if s.shard > 0 {
		h.pass.Reportf(call.Pos(), "shard lock acquired while a shard lock is already held; acquire multi-shard sets in one ordered operation (LockShardMask or a scoped helper)")
	}
}

// OnAssign binds unlock-closure variables produced by acquisitions:
// `u := acquire(...)` makes a later `u()` release what it took.
func (h *loHooks) OnAssign(lhs, rhs []ast.Expr, st State) State {
	s := st.(*loState)
	info := h.pass.TypesInfo
	for i, r := range rhs {
		call, ok := ast.Unparen(r).(*ast.CallExpr)
		if !ok || i >= len(lhs) || !acquiresShard(h.pass, call) {
			continue
		}
		if id, ok := lhs[i].(*ast.Ident); ok {
			if o := objOf(info, id); o != nil {
				s.pending[o] = true
			}
		}
	}
	return s
}

// OnHavoc drops pending bindings for loop-assigned variables.
func (h *loHooks) OnHavoc(assigned map[types.Object]bool, st State) State {
	s := st.(*loState)
	for o := range assigned {
		delete(s.pending, o)
	}
	return s
}

// acquiresShard reports whether call acquires shard locks, directly or
// through its callee's summary.
func acquiresShard(pass *Pass, call *ast.CallExpr) bool {
	switch classify(pass.TypesInfo, call) {
	case kShardLock, kShardLockOrdered:
		return true
	}
	if f := callee(pass.TypesInfo, call); f != nil {
		if sum := pass.Summary(f); sum != nil {
			return sum.ShardEffect == LockAcquires
		}
	}
	return false
}

// --- Rule 2: sorted shard sets ---

// ssFact marks parameters that must receive sorted shard sets.
type ssFact struct {
	needsSorted map[int]bool // parameter index
}

// provenance of a range-drawn value variable.
type ssDrawn struct {
	kind  int // ssOK / ssBad / ssParam
	param *types.Var
}

const (
	ssOK    = iota // sorted source or ascending index
	ssBad          // known-unsorted module-produced []int
	ssParam        // drawn from a []int parameter: obligation moves to callers
)

type ssState struct {
	sorted   map[types.Object]bool    // []int vars established sorted
	unsorted map[types.Object]bool    // []int vars produced unsorted
	drawn    map[types.Object]ssDrawn // range value vars
}

func newSsState() *ssState {
	return &ssState{
		sorted:   make(map[types.Object]bool),
		unsorted: make(map[types.Object]bool),
		drawn:    make(map[types.Object]ssDrawn),
	}
}

func (s *ssState) Clone() State {
	c := newSsState()
	for k, v := range s.sorted {
		c.sorted[k] = v
	}
	for k, v := range s.unsorted {
		c.unsorted[k] = v
	}
	for k, v := range s.drawn {
		c.drawn[k] = v
	}
	return c
}

// Merge: sortedness must hold on every path (intersection), unsortedness
// may hold (union), and drawn entries survive only when both paths agree.
func (s *ssState) Merge(other State) State {
	o := other.(*ssState)
	for k := range s.sorted {
		if !o.sorted[k] {
			delete(s.sorted, k)
		}
	}
	for k, v := range o.unsorted {
		s.unsorted[k] = v
	}
	for k, v := range s.drawn {
		if ov, ok := o.drawn[k]; !ok || ov != v {
			delete(s.drawn, k)
		}
	}
	return s
}

// paramIndexes maps fd's parameter objects to their positional index.
func paramIndexes(info *types.Info, fd *ast.FuncDecl) map[types.Object]int {
	out := make(map[types.Object]int)
	if fd.Type.Params == nil {
		return out
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if o := info.Defs[name]; o != nil {
				out[o] = i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return out
}

type ssHooks struct {
	NopHooks
	pass   *Pass
	fd     *ast.FuncDecl
	report bool
	params map[types.Object]int
	needs  map[int]bool // needs-sorted params discovered this walk
}

// exportNeeds merges discovered parameter obligations into fd's fact.
func (h *ssHooks) exportNeeds() {
	if len(h.needs) == 0 {
		return
	}
	obj, ok := h.pass.TypesInfo.Defs[h.fd.Name].(*types.Func)
	if !ok {
		return
	}
	f, _ := h.pass.ImportObjectFact(obj).(*ssFact)
	if f == nil {
		f = &ssFact{needsSorted: make(map[int]bool)}
	}
	for i := range h.needs {
		f.needsSorted[i] = true
	}
	h.pass.ExportObjectFact(obj, f)
}

func (h *ssHooks) need(i int) {
	if h.needs == nil {
		h.needs = make(map[int]bool)
	}
	h.needs[i] = true
}

// isModuleIntSliceCall reports whether call's static callee is a module
// function returning []int, and whether its summary establishes
// sortedness.
func (h *ssHooks) isModuleIntSliceCall(call *ast.CallExpr) (isIntSlice, sorted bool) {
	f := callee(h.pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil || !strings.HasPrefix(f.Pkg().Path(), "potgo/") {
		return false, false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 || !isIntSliceType(sig.Results().At(0).Type()) {
		return false, false
	}
	sum := h.pass.Summary(f)
	return true, sum != nil && sum.SortedInts
}

func (h *ssHooks) OnCall(call *ast.CallExpr, st State) State {
	s := st.(*ssState)
	info := h.pass.TypesInfo
	switch classify(info, call) {
	case kSortInts:
		if len(call.Args) > 0 {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if o := objOf(info, id); o != nil {
					s.sorted[o] = true
					delete(s.unsorted, o)
				}
			}
		}
	case kMuLock:
		if t, ok := shardedMuTarget(info, call); ok {
			h.checkLockIndex(call, t.index, s)
		}
	}
	// A callee's needs-sorted facts bind its arguments whatever the call's
	// kind: the ordered helpers (lockShards, rlockShards) classify as
	// shard-lock calls.
	if f := callee(info, call); f != nil {
		if fact, _ := h.pass.ImportObjectFact(f).(*ssFact); fact != nil {
			h.checkSortedArgs(call, fact, s)
		}
	}
	return s
}

// checkLockIndex applies rule 2 to the index expression of a slice-lock
// acquisition.
func (h *ssHooks) checkLockIndex(call *ast.CallExpr, index ast.Expr, s *ssState) {
	info := h.pass.TypesInfo
	switch e := ast.Unparen(index).(type) {
	case *ast.Ident:
		o := objOf(info, e)
		if o == nil {
			return
		}
		if d, ok := s.drawn[o]; ok {
			switch d.kind {
			case ssBad:
				if h.report {
					h.pass.Reportf(call.Pos(), "lock acquisition indexed by a value drawn from an unsorted shard set; sort and deduplicate the set before acquiring (ascending order)")
				}
			case ssParam:
				if i, ok := h.params[d.param]; ok {
					h.need(i)
				}
			}
		}
	case *ast.IndexExpr:
		// idx[i]-style: the slice itself must be sorted.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if o := objOf(info, id); o != nil {
				if s.unsorted[o] && h.report {
					h.pass.Reportf(call.Pos(), "lock acquisition indexed through an unsorted shard set; sort and deduplicate the set before acquiring (ascending order)")
				} else if i, ok := h.params[o]; ok && !s.sorted[o] {
					h.need(i)
				}
			}
		}
	}
}

// checkSortedArgs enforces a callee's needs-sorted parameter facts at the
// call site.
func (h *ssHooks) checkSortedArgs(call *ast.CallExpr, fact *ssFact, s *ssState) {
	const msg = "argument must be a sorted, deduplicated shard set (callee acquires locks in argument order)"
	info := h.pass.TypesInfo
	for i := range fact.needsSorted {
		if i >= len(call.Args) {
			continue
		}
		switch a := ast.Unparen(call.Args[i]).(type) {
		case *ast.CallExpr:
			if isSlice, sorted := h.isModuleIntSliceCall(a); isSlice && !sorted && h.report {
				h.pass.Reportf(a.Pos(), msg)
			}
		case *ast.Ident:
			o := objOf(info, a)
			if o == nil {
				continue
			}
			switch {
			case s.sorted[o]:
			case s.unsorted[o]:
				if h.report {
					h.pass.Reportf(a.Pos(), msg)
				}
			default:
				if pi, ok := h.params[o]; ok {
					h.need(pi) // obligation forwards to this function's callers
				}
			}
		}
	}
}

// OnAssign re-derives []int provenance: assignment clears old facts, and a
// module call producing a []int marks the target sorted or unsorted
// according to the callee's summary.
func (h *ssHooks) OnAssign(lhs, rhs []ast.Expr, st State) State {
	s := st.(*ssState)
	if rhs == nil {
		// Range-variable and x++ assignments: OnRange already bound the
		// range variables' provenance; don't clear it here.
		return s
	}
	info := h.pass.TypesInfo
	for i, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		o := objOf(info, id)
		if o == nil {
			continue
		}
		delete(s.sorted, o)
		delete(s.unsorted, o)
		delete(s.drawn, o)
		if i >= len(rhs) {
			continue
		}
		if call, ok := ast.Unparen(rhs[i]).(*ast.CallExpr); ok {
			if isSlice, sorted := h.isModuleIntSliceCall(call); isSlice {
				if sorted {
					s.sorted[o] = true
				} else {
					s.unsorted[o] = true
				}
			}
		}
	}
	return s
}

// OnRange binds the range variables' provenance: keys index ascending;
// values carry the sortedness of the ranged-over []int.
func (h *ssHooks) OnRange(x ast.Expr, key, value ast.Expr, st State) State {
	s := st.(*ssState)
	info := h.pass.TypesInfo
	if id, ok := key.(*ast.Ident); ok && id.Name != "_" {
		if o := objOf(info, id); o != nil {
			s.drawn[o] = ssDrawn{kind: ssOK}
		}
	}
	vid, ok := value.(*ast.Ident)
	if !ok || vid.Name == "_" {
		return s
	}
	vo := objOf(info, vid)
	if vo == nil || !isIntSliceType(info.TypeOf(x)) {
		return s
	}
	switch src := ast.Unparen(x).(type) {
	case *ast.Ident:
		o := objOf(info, src)
		switch {
		case o == nil:
		case s.sorted[o]:
			s.drawn[vo] = ssDrawn{kind: ssOK}
		case s.unsorted[o]:
			s.drawn[vo] = ssDrawn{kind: ssBad}
		default:
			if _, isParam := h.params[o]; isParam {
				if v, ok := o.(*types.Var); ok {
					s.drawn[vo] = ssDrawn{kind: ssParam, param: v}
				}
			}
		}
	case *ast.CallExpr:
		if isSlice, sorted := h.isModuleIntSliceCall(src); isSlice {
			if sorted {
				s.drawn[vo] = ssDrawn{kind: ssOK}
			} else {
				s.drawn[vo] = ssDrawn{kind: ssBad}
			}
		}
	}
	return s
}

// OnHavoc drops provenance for loop-assigned variables.
func (h *ssHooks) OnHavoc(assigned map[types.Object]bool, st State) State {
	s := st.(*ssState)
	for o := range assigned {
		delete(s.sorted, o)
		delete(s.unsorted, o)
		delete(s.drawn, o)
	}
	return s
}

func isIntSliceType(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().(*types.Basic)
	return ok && b.Kind() == types.Int
}
