package analysis

import (
	"go/ast"
	"strings"
)

// SnapshotRead enforces the wait-free discipline of the MVCC snapshot read
// path (pmem/mvcc.go): a function whose doc comment carries the line
//
//	//potlint:snapshot-read
//
// is part of the epoch-pinned read protocol — Pin/Unpin, SnapDeref, the
// pds snapshot walks — and must stay latch-free and read-only. It must not
// acquire shard locks (directly, through a sharded-state mutex, or by
// calling a module function whose summary says it does), must not
// open a mutating transaction (Sharded.Update, Heap.Begin) or a latched
// View section, must not mutate persistent state (Ref stores, Cell.Set,
// transactional Alloc/Touch), and must not write back to the persistence
// domain (Persist, CLWB, SFENCE, or a callee that fences).
//
// Annotated callees are trusted: their own bodies are checked here, so a
// snapshot-read function freely composes from other snapshot-read
// functions. Plain struct-field mutexes (a version mirror's bucket locks)
// are internal short sections, not shard state, and are allowed. The
// latched fallback an entry point keeps for mirror misses is either hoisted
// to an unannotated caller or carries a line-level
// `//potlint:allow snapshotread <reason>`.
var SnapshotRead = &Analyzer{
	Name:     "snapshotread",
	Doc:      "check //potlint:snapshot-read-annotated functions stay latch-free and read-only",
	Requires: []*Analyzer{Summaries},
	Run:      runSnapshotRead,
}

func runSnapshotRead(pass *Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		if hasSnapshotReadDirective(fd) {
			checkSnapshotRead(pass, fd)
		}
	}
	return nil
}

// hasSnapshotReadDirective reports whether fd's doc comment contains the
// //potlint:snapshot-read directive.
func hasSnapshotReadDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), "//potlint:snapshot-read") {
			return true
		}
	}
	return false
}

// checkSnapshotRead walks fd's body (closures included: any code in the
// function is on the read path when it runs) reporting each violating call.
func checkSnapshotRead(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch classify(info, call) {
		case kShardLock, kShardLockOrdered:
			pass.Reportf(call.Pos(), "shard lock acquired in //potlint:snapshot-read function %s; snapshot reads must stay latch-free", name)
		case kMuLock:
			if _, ok := shardedMuTarget(info, call); ok {
				pass.Reportf(call.Pos(), "sharded-state mutex acquired in //potlint:snapshot-read function %s; snapshot reads must stay latch-free", name)
			}
		case kShardScoped:
			if f := callee(info, call); f != nil {
				if f.Name() == "View" {
					pass.Reportf(call.Pos(), "latched View section opened in //potlint:snapshot-read function %s; snapshot reads must stay latch-free", name)
				} else {
					pass.Reportf(call.Pos(), "mutating %s transaction opened in //potlint:snapshot-read function %s; snapshot reads are read-only", f.Name(), name)
				}
			}
		case kHeapBegin:
			pass.Reportf(call.Pos(), "mutating heap transaction opened in //potlint:snapshot-read function %s; snapshot reads are read-only", name)
		case kRefStore, kCellSet, kAlloc, kTouch:
			pass.Reportf(call.Pos(), "persistent mutation in //potlint:snapshot-read function %s; snapshot reads are read-only", name)
		case kPersist, kPersistNoFence, kSFence, kCLWB:
			pass.Reportf(call.Pos(), "persistence-domain write-back in //potlint:snapshot-read function %s; snapshot reads are read-only", name)
		case kOther:
			f := callee(info, call)
			if f == nil {
				return true
			}
			sum := pass.Summary(f)
			if sum == nil || sum.SnapshotRead {
				return true
			}
			switch {
			case sum.ShardEffect != LockNone:
				pass.Reportf(call.Pos(), "calls %s which takes shard locks, in //potlint:snapshot-read function %s", f.Name(), name)
			case sum.MayFence:
				pass.Reportf(call.Pos(), "calls %s which writes back to the persistence domain, in //potlint:snapshot-read function %s", f.Name(), name)
			}
		}
		return true
	})
}
