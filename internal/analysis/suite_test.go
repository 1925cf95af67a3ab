package analysis_test

import (
	"testing"

	"potgo/internal/analysis"
	"potgo/internal/analysis/analysistest"
)

func TestTouchBeforeStore(t *testing.T) {
	analysistest.Run(t, analysis.TouchBeforeStore, "touchbeforestore")
}

func TestPersistBeforePublish(t *testing.T) {
	analysistest.Run(t, analysis.PersistBeforePublish, "persistbeforepublish")
}

func TestRefEscape(t *testing.T) {
	analysistest.Run(t, analysis.RefEscape, "refescape")
}

func TestEmitBalance(t *testing.T) {
	analysistest.Run(t, analysis.EmitBalance, "emitbalance")
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, analysis.LockOrder, "lockorder")
}

// TestLatchDiscipline pins lockorder's shard-set rule, which began as the
// latchdiscipline analyzer's rule 1: a loop that locks by a slot set must
// draw it from a sorted, deduplicated builder, and the needs-sorted facts
// of argument-order lock helpers are enforced at their call sites.
func TestLatchDiscipline(t *testing.T) {
	analysistest.Run(t, analysis.LockOrder, "lockorder/shardset")
}

func TestAllocOrder(t *testing.T) {
	analysistest.Run(t, analysis.AllocOrder, "allocorder")
}

func TestNoAlloc(t *testing.T) {
	analysistest.Run(t, analysis.NoAlloc, "noalloc")
}

func TestSnapshotRead(t *testing.T) {
	analysistest.Run(t, analysis.SnapshotRead, "snapshotread")
}

func TestUnusedExport(t *testing.T) {
	analysistest.Run(t, analysis.UnusedExport, "unusedexport")
}

// TestTreeIsClean is the potlint gate in test form: the full suite must
// report nothing on the tree itself. If this fails, either real code broke
// a persistence invariant or an analyzer grew a false positive — both need
// fixing before merge.
func TestTreeIsClean(t *testing.T) {
	lintClean(t, analysis.All(), "./...")
}

// TestUnusedExportPartialRun pins the whole-program driver: a run that
// names one package still sees every caller in the module, so the clean
// tree reports nothing.
func TestUnusedExportPartialRun(t *testing.T) {
	lintClean(t, []*analysis.Analyzer{analysis.UnusedExport}, "./internal/pmem")
}

func lintClean(t *testing.T, analyzers []*analysis.Analyzer, patterns ...string) {
	t.Helper()
	loader, diags, err := analysis.Lint(analyzers, patterns)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", loader.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
