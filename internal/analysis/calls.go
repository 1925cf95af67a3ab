package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Import paths of the packages whose API the analyzers understand. Fixture
// packages under testdata import the real packages, so matching on these
// paths works for both the tree and the tests.
const (
	pmemPath = "potgo/internal/pmem"
	pdsPath  = "potgo/internal/pds"
	emitPath = "potgo/internal/emit"
	oidPath  = "potgo/internal/oid"
)

// callKind classifies the API calls the persistence invariants are about.
type callKind int

const (
	kOther          callKind = iota
	kRefStore                // pmem.Ref.Store64 / WriteBytes
	kDeref                   // pmem.Heap.Deref
	kDirectRef               // pmem.Heap.DirectRef
	kAlloc                   // Heap.Alloc / Tx.Alloc / TxCtx.AllocIn / Ctx-shaped Alloc(key,size)
	kTouch                   // Ctx-shaped Touch(oid,size) / Tx.AddRange
	kPersist                 // Heap.Persist
	kPersistNoFence          // a *NoFence persist helper (CLWBs, no trailing fence)
	kCellSet                 // pds.Cell.Set
	kCellOID                 // pds.Cell.OID
	kFieldAt                 // oid.OID.FieldAt
	kCLWB                    // emit.Emitter.CLWB
	kSFence                  // emit.Emitter.SFence
	kInvalidate              // Heap.Close / Crash / Recover, Tx.Abort

	// Concurrency kinds (lockorder / snapshotread).
	kShardLock          // Sharded.LockPool / RLockPool — one pool's shard, unordered wrt others
	kShardUnlock        // Sharded.UnlockPool / RUnlockPool
	kShardLockOrdered   // Sharded.LockShardMask / RLockAll / lockAll / lockShards / rlockShards — ascending by construction
	kShardUnlockOrdered // Sharded.UnlockShardMask / RUnlockAll
	kShardScoped        // Sharded.View / Update — acquires and releases internally
	kMuLock             // sync.Mutex/RWMutex Lock/RLock
	kMuUnlock           // sync.Mutex/RWMutex Unlock/RUnlock
	kSortInts           // sort.Ints / sort.Sort / slices.Sort* — establishes sortedness
	kHeapBegin          // Heap.Begin — opens a mutating transaction

	// Allocator write-ahead kinds (allocorder). These are matched by the
	// method-name convention (logAppend / storeSlabBit) rather than by
	// concrete type, so fixture copies of the allocator are analyzable.
	kLogAppend    // a durable undo/redo log append (record persisted before publish)
	kSlabBitStore // occupancy-bit read-modify-write (publishes a slot when set=true)
)

// callee resolves the static callee of a call, or nil (indirect calls,
// conversions, builtins).
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// recvTypeName unwraps pointers and returns the receiver's defining
// package path and type name ("" for interface methods without a named
// receiver type).
func recvTypeName(f *types.Func) (pkgPath, typeName string) {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		if t.Obj().Pkg() != nil {
			return t.Obj().Pkg().Path(), t.Obj().Name()
		}
		return "", t.Obj().Name()
	case *types.Interface:
		return "", ""
	}
	return "", ""
}

// namedAs reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func namedAs(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

func isOIDType(t types.Type) bool  { return namedAs(t, oidPath, "OID") }
func isRefType(t types.Type) bool  { return namedAs(t, pmemPath, "Ref") }
func isCellType(t types.Type) bool { return namedAs(t, pdsPath, "Cell") }

// isTouchShaped reports whether f looks like Ctx.Touch: a method named
// Touch taking (oid.OID, uint32) — matching the pds.Ctx contract whatever
// concrete or interface type carries it.
func isTouchShaped(f *types.Func) bool {
	if f.Name() != "Touch" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 2 {
		return false
	}
	return isOIDType(sig.Params().At(0).Type())
}

// isAllocShaped reports whether f looks like Ctx.Alloc: a method named
// Alloc taking (uint64, uint32) and returning an OID first.
func isAllocShaped(f *types.Func) bool {
	if f.Name() != "Alloc" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 2 || sig.Results().Len() < 1 {
		return false
	}
	return isOIDType(sig.Results().At(0).Type())
}

// classify maps a call to the API kind the analyzers care about.
func classify(info *types.Info, call *ast.CallExpr) callKind {
	f := callee(info, call)
	if f == nil {
		return kOther
	}
	pkg, typ := recvTypeName(f)
	switch {
	case pkg == "sync" && (typ == "Mutex" || typ == "RWMutex"):
		switch f.Name() {
		case "Lock", "RLock", "TryLock", "TryRLock":
			return kMuLock
		case "Unlock", "RUnlock":
			return kMuUnlock
		}
	case pkg == pmemPath && typ == "Sharded":
		switch f.Name() {
		case "LockPool", "RLockPool":
			return kShardLock
		case "UnlockPool", "RUnlockPool":
			return kShardUnlock
		case "LockShardMask", "RLockAll", "lockAll", "lockShards", "rlockShards":
			return kShardLockOrdered
		case "UnlockShardMask", "RUnlockAll":
			return kShardUnlockOrdered
		case "View", "Update":
			return kShardScoped
		}
	case pkg == pmemPath && typ == "Ref":
		switch f.Name() {
		case "Store64", "WriteBytes":
			return kRefStore
		}
	case pkg == pmemPath && typ == "Heap":
		switch f.Name() {
		case "Begin":
			return kHeapBegin
		case "Deref":
			return kDeref
		case "DirectRef":
			return kDirectRef
		case "Alloc":
			return kAlloc
		case "Persist":
			return kPersist
		case "fence":
			// Heap.fence is the group-commit fence point: sequentially it is
			// a plain SFENCE; concurrently the committing goroutine either
			// leads (issuing one SFENCE that also covers follower CLWBs) or
			// waits for a leader whose fence is ordered after its own CLWBs.
			// Either way, by return every previously emitted CLWB is retired,
			// so it balances like SFence — no blanket suppression needed.
			return kSFence
		case "Close", "Crash", "Recover":
			return kInvalidate
		}
		if isNoFenceName(f.Name()) {
			return kPersistNoFence
		}
	case pkg == pmemPath && typ == "Tx":
		switch f.Name() {
		case "AddRange":
			return kTouch
		case "Alloc":
			return kAlloc
		case "Abort":
			return kInvalidate
		}
	case pkg == pdsPath && typ == "TxCtx":
		if f.Name() == "AllocIn" {
			return kAlloc
		}
	case pkg == pdsPath && typ == "Cell":
		switch f.Name() {
		case "Set":
			return kCellSet
		case "OID":
			return kCellOID
		}
	case pkg == oidPath && typ == "OID":
		if f.Name() == "FieldAt" {
			return kFieldAt
		}
	case pkg == emitPath && typ == "Emitter":
		switch f.Name() {
		case "CLWB":
			return kCLWB
		case "SFence":
			return kSFence
		}
	}
	// Shape and convention fallbacks, so fixture copies and future types
	// participate without a hardwired type list.
	switch f.Name() {
	case "logAppend":
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			return kLogAppend
		}
	case "storeSlabBit":
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			return kSlabBitStore
		}
	case "Ints", "Sort", "Slice", "SortFunc", "Stable", "SortStableFunc":
		if p := f.Pkg(); p != nil && (p.Path() == "sort" || p.Path() == "slices") && sig_recvless(f) {
			return kSortInts
		}
	}
	if isTouchShaped(f) {
		return kTouch
	}
	if isAllocShaped(f) {
		return kAlloc
	}
	return kOther
}

// sig_recvless reports whether f is a plain function (no receiver).
func sig_recvless(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// callsNamed reports whether expression e contains a call to a function or
// method with the given name (used to recognise `Store64(p.freeHeadOff(c),
// ...)`-style free-list-head publications).
func callsNamed(info *types.Info, e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if f := callee(info, call); f != nil && f.Name() == name {
			found = true
		}
		return !found
	})
	return found
}

// muTarget describes the object a direct sync.Mutex/RWMutex operation is
// performed on, when the mutex is an element of (or a field of an element
// of) a slice — the "sharded state" shape, either way:
//
//	t.mus[s].Lock()         -> slice of mutexes
//	s.shards[i].mu.Lock()   -> slice of structs carrying a mutex
//
// owner is the named type whose field holds the slice (nil when the slice
// is not reached through a named struct's field) and index is the index
// expression.
type muTarget struct {
	owner *types.Named
	index ast.Expr
}

// shardedMuTarget matches the two sharded-state shapes on the receiver
// expression of a classified kMuLock/kMuUnlock call; ok=false for plain
// struct-field mutexes (`s.mu.Lock()`), which are not sharded state.
func shardedMuTarget(info *types.Info, call *ast.CallExpr) (muTarget, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return muTarget{}, false
	}
	recv := ast.Unparen(sel.X) // the mutex expression
	// Unwrap one field selection: shards[i].mu -> shards[i].
	if fieldSel, ok := recv.(*ast.SelectorExpr); ok {
		if idx, ok := ast.Unparen(fieldSel.X).(*ast.IndexExpr); ok {
			return muTarget{owner: sliceFieldOwner(info, idx.X), index: idx.Index}, true
		}
		return muTarget{}, false
	}
	if idx, ok := recv.(*ast.IndexExpr); ok {
		// mus[s] — a slice of mutexes directly.
		if t, ok := info.TypeOf(idx.X).(*types.Slice); ok {
			if namedAs(t.Elem(), "sync", "RWMutex") || namedAs(t.Elem(), "sync", "Mutex") {
				return muTarget{owner: sliceFieldOwner(info, idx.X), index: idx.Index}, true
			}
		}
	}
	return muTarget{}, false
}

// sliceFieldOwner resolves `x.f` (f a slice field) to x's named type.
func sliceFieldOwner(info *types.Info, e ast.Expr) *types.Named {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	t := info.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNoFenceName reports whether a function name declares the unfenced
// convention ("persistNoFence", "FlushNoFence", ...).
func isNoFenceName(name string) bool {
	return strings.Contains(strings.ToLower(name), "nofence")
}

// canonOID renders an OID-producing expression to a canonical string used
// to match a Touch/Persist against a later store: parentheses are
// stripped and `X.FieldAt(off)` reduces to the canonical form of X, so a
// snapshot of a whole object covers stores to any of its fields.
func canonOID(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if classify(info, call) == kFieldAt {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return canonOID(info, sel.X)
			}
		}
	}
	return types.ExprString(e)
}

// exprDeps collects the objects (variables) an expression mentions, used
// to invalidate canonical matches when a variable is reassigned.
func exprDeps(info *types.Info, e ast.Expr) map[types.Object]bool {
	deps := make(map[types.Object]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := objOf(info, id); obj != nil {
				if _, isVar := obj.(*types.Var); isVar {
					deps[obj] = true
				}
			}
		}
		return true
	})
	return deps
}

// recvExpr returns the receiver expression of a method call (sel.X), or
// nil.
func recvExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// oidOperand unwraps integer conversions (uint64(x)) and returns the
// OID-typed operand being converted or used directly, or nil. This is how
// a "publishing store" is recognised: the stored value carries an
// ObjectID.
func oidOperand(info *types.Info, e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	if isOIDType(info.TypeOf(e)) {
		return e
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	// A conversion T(x): the callee resolves to a type, not a function.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		arg := ast.Unparen(call.Args[0])
		if isOIDType(info.TypeOf(arg)) {
			return arg
		}
	}
	return nil
}

// funcDecls yields the function declarations of a package's files.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// ctxParam returns the first parameter of fd whose type carries the
// Ctx.Touch contract (a Touch(oid.OID, uint32) method), or nil. Functions
// with such a parameter operate under the pds transactional discipline.
func ctxParam(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if hasTouchMethod(t) {
			if len(field.Names) > 0 {
				if v, ok := info.Defs[field.Names[0]].(*types.Var); ok {
					return v
				}
			}
		}
	}
	return nil
}

// hasTouchMethod reports whether t has a Touch(oid.OID, uint32) method in
// its method set.
func hasTouchMethod(t types.Type) bool {
	for _, tt := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(tt, true, nil, "Touch")
		if f, ok := obj.(*types.Func); ok && isTouchShaped(f) {
			return true
		}
	}
	return false
}
