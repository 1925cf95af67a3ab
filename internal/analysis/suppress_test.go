package analysis_test

import (
	"strings"
	"testing"

	"potgo/internal/analysis"
)

// TestSuppressions drives the //potlint:allow directive end to end on the
// suppress fixture: a matching allow silences its finding, a stale allow
// is reported as unused, and an allow without a reason is rejected.
func TestSuppressions(t *testing.T) {
	loader, err := analysis.NewLoader("")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	const fixture = "potgo/internal/analysis/testdata/src/suppress"
	if _, err := loader.Load(fixture); err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	ran := []*analysis.Analyzer{analysis.NoAlloc}
	diags, err := analysis.Run(ran, loader.Packages())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("before filtering: got %d diagnostics, want 2 (the appends in grow and missing): %v", len(diags), diags)
	}
	diags = analysis.FilterSuppressed(diags, loader.Fset, loader.Packages(), ran)

	var got []string
	for _, d := range diags {
		if d.Pkg != fixture {
			t.Errorf("diagnostic outside fixture: %+v", d)
		}
		got = append(got, d.Analyzer+": "+d.Message)
	}
	if len(got) != 2 {
		t.Fatalf("after filtering: got %d diagnostics, want 2: %v", len(got), got)
	}
	if !strings.Contains(got[0], "unused suppression") || !strings.Contains(got[0], "suppress:") {
		t.Errorf("first diagnostic should be the unused suppression in fine, got %q", got[0])
	}
	if !strings.Contains(got[1], "needs a reason") {
		t.Errorf("second diagnostic should be the reasonless suppression in missing, got %q", got[1])
	}
}
