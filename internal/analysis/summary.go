package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The interprocedural layer: Summaries is a fact-only analyzer that
// computes one FuncSummary per function declaration — which locks it
// acquires or releases, whether it fences, whether it allocates, whether
// it appends a durable log record — and exports them as object facts.
// Dependent analyzers (lockorder, allocorder, noalloc, snapshotread) list
// Summaries in their Requires and read the facts through Pass.Summary,
// which lets them see through helpers such as Sharded.LockPool,
// Heap.fence or Tx.logAppend instead of stopping at the call boundary.
//
// Summaries are may-facts computed by a syntactic scan (function literal
// bodies are skipped — a closure's lock operations run when it is invoked,
// which the balancing idioms below account for), iterated to a fixpoint
// within each package; packages are processed in dependency order, so
// cross-package callees are always final when their callers are scanned.
//
// Two balancing idioms turn an acquire into a balanced pair:
//
//	defer s.lockShards(idx)()        // deferred invocation of the unlock closure
//	u := s.lockShards(idx); ...; u() // explicit invocation of the unlock closure
var Summaries = &Analyzer{
	Name: "summaries",
	Doc:  "interprocedural fact layer: per-function lock/fence/allocation summaries (reports nothing itself)",
}

// Run is attached in init: runSummaries reads its own facts back through
// Pass.Summary, which mentions Summaries — assigning Run in the composite
// literal would be an initialization cycle.
func init() { Summaries.Run = runSummaries }

// LockEffect is a function's net effect on the shard locks.
type LockEffect int

const (
	LockNone     LockEffect = iota
	LockAcquires            // may leave shard locks held (or return their unlocker)
	LockReleases            // releases locks the caller holds
	LockBalanced            // acquires and releases internally
)

// FuncSummary is the exported per-function fact.
type FuncSummary struct {
	// ShardEffect is the function's net effect on the shard locks.
	ShardEffect LockEffect
	// MayFence: the function issues an SFENCE (directly, via Persist, or
	// via a callee) on some path.
	MayFence bool
	// Allocates: the function contains an allocating construct outside
	// the error-path exemptions, or calls a function that does. AllocWhat
	// and AllocPos describe the first such construct.
	Allocates bool
	AllocWhat string
	AllocPos  token.Pos
	// LogsDurably: the function appends a durable log record (it is
	// logAppend-shaped, or calls something that is). The allocorder
	// analyzer treats a call to such a function as the write-ahead step
	// that licenses a subsequent occupancy-bit publication.
	LogsDurably bool
	// SortedInts: the function returns a []int it sorted (sort.Ints or
	// friends) — shard-set builders like Sharded.shardSet. Ranging over its
	// result acquires in order.
	SortedInts bool
	// NoAlloc: the function carries the //potlint:noalloc annotation.
	// Annotated functions are checked by the noalloc analyzer themselves,
	// so callers treat them as non-allocating.
	NoAlloc bool
	// SnapshotRead: the function carries the //potlint:snapshot-read
	// annotation — it is part of the epoch-pinned MVCC read path. The
	// snapshotread analyzer checks annotated bodies itself, so annotated
	// callers treat annotated callees as latch-free and read-only.
	SnapshotRead bool
}

func runSummaries(pass *Pass) error {
	decls := funcDecls(pass.Files)
	// Fixpoint: intra-package call chains (and recursion) stabilise in at
	// most the chain depth; four rounds covers every chain in the tree and
	// the facts are monotone, so early convergence is detected and extra
	// rounds are no-ops.
	for i := 0; i < 4; i++ {
		changed := false
		for _, fd := range decls {
			if summarize(pass, fd) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return nil
}

// summarize recomputes fd's summary and reports whether it changed.
func summarize(pass *Pass, fd *ast.FuncDecl) bool {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	info := pass.TypesInfo
	s := &FuncSummary{NoAlloc: hasNoAllocDirective(fd), SnapshotRead: hasSnapshotReadDirective(fd)}

	var shardAcq, shardRel bool
	note := func(k callKind, call *ast.CallExpr) {
		switch k {
		case kShardLock, kShardLockOrdered:
			shardAcq = true
		case kShardUnlock, kShardUnlockOrdered:
			shardRel = true
		case kMuLock, kMuUnlock:
			if _, ok := shardedMuTarget(info, call); ok {
				if k == kMuLock {
					shardAcq = true
				} else {
					shardRel = true
				}
			}
		case kSFence, kPersist:
			s.MayFence = true
		case kLogAppend:
			s.LogsDurably = true
		case kSortInts:
			if returnsIntSlice(info, fd) {
				s.SortedInts = true
			}
		}
	}

	// unlockVars holds the variables bound to an acquire's unlock closure.
	unlockVars := make(map[types.Object]bool)

	var scan func(n ast.Node)
	scan = func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false // runs later, if at all
			case *ast.DeferStmt:
				// `defer acquire(...)()`: the inner acquire is counted by
				// the generic CallExpr case below; the deferred invocation
				// of its unlock closure balances it at exit.
				if inner, ok := ast.Unparen(x.Call.Fun).(*ast.CallExpr); ok && acquiresShard(pass, inner) {
					shardRel = true
				}
			case *ast.AssignStmt:
				// `u := acquire(...)`: remember u as an unlock closure.
				for i, r := range x.Rhs {
					if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && i < len(x.Lhs) && acquiresShard(pass, call) {
						if id, ok := x.Lhs[i].(*ast.Ident); ok {
							if o := objOf(info, id); o != nil {
								unlockVars[o] = true
							}
						}
					}
				}
			case *ast.CallExpr:
				k := classify(info, x)
				note(k, x)
				if k == kOther {
					if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
						// `u()`: invoking a remembered unlock closure.
						if o := objOf(info, id); o != nil && unlockVars[o] {
							shardRel = true
						}
					}
					if f := callee(info, x); f != nil {
						if sum := pass.Summary(f); sum != nil {
							mergeCalleeSummary(s, sum, &shardAcq, &shardRel)
						}
					}
				}
			}
			return true
		})
	}
	scan(fd.Body)

	s.ShardEffect = effectOf(shardAcq, shardRel)

	// Allocation behaviour: the shared construct scanner, plus callee
	// propagation. Annotated functions are treated as non-allocating for
	// callers — their own body is gated by the noalloc analyzer.
	if !s.NoAlloc {
		if fs := scanAllocs(info, fd, func(f *types.Func) *FuncSummary { return pass.Summary(f) }); len(fs) > 0 {
			s.Allocates = true
			s.AllocWhat = fs[0].what
			s.AllocPos = fs[0].pos
		}
	}

	old, _ := pass.ImportObjectFact(obj).(*FuncSummary)
	if old != nil && *old == *s {
		return false
	}
	if old == nil && *s == (FuncSummary{}) {
		return false
	}
	pass.ExportObjectFact(obj, s)
	return true
}

// mergeCalleeSummary folds a callee's effects into the caller's scan.
func mergeCalleeSummary(s *FuncSummary, sum *FuncSummary, shardAcq, shardRel *bool) {
	switch sum.ShardEffect {
	case LockAcquires:
		*shardAcq = true
	case LockReleases:
		*shardRel = true
	}
	if sum.MayFence {
		s.MayFence = true
	}
	if sum.LogsDurably {
		s.LogsDurably = true
	}
}

func effectOf(acq, rel bool) LockEffect {
	switch {
	case acq && rel:
		return LockBalanced
	case acq:
		return LockAcquires
	case rel:
		return LockReleases
	}
	return LockNone
}

// returnsIntSlice reports whether fd's first result is a []int.
func returnsIntSlice(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return false
	}
	return isIntSliceType(info.TypeOf(fd.Type.Results.List[0].Type))
}
