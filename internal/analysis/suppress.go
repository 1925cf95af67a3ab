package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// Line-level suppression: a finding is silenced by the directive
//
//	//potlint:allow <analyzer> <reason>
//
// placed at the end of the offending line or on the line directly above
// it. The reason is mandatory — a suppression documents why the invariant
// is safe to bend here (an amortized buffer growth, a cold path) — and a
// suppression that silences nothing is itself reported (analyzer name
// "suppress"), so stale allowances are cleaned up when the code they
// excused changes.

// suppression is one parsed //potlint:allow directive.
type suppression struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	reason   string
	pkg      string
	used     bool
}

// FilterSuppressed drops diagnostics covered by //potlint:allow directives
// in pkgs' sources and appends a diagnostic for every directive that
// suppressed nothing (or is missing its reason). ran names the analyzers
// that produced diags: a directive for any other analyzer cannot have been
// used, so it is not reported as unused. The result is re-sorted by
// position.
func FilterSuppressed(diags []Diagnostic, fset *token.FileSet, pkgs []*LoadedPackage, ran []*Analyzer) []Diagnostic {
	sups := collectSuppressions(fset, pkgs)
	if len(sups) == 0 {
		return diags
	}
	didRun := make(map[string]bool, len(ran))
	for _, a := range ran {
		didRun[a.Name] = true
	}
	byFile := make(map[string][]*suppression)
	for _, s := range sups {
		byFile[s.file] = append(byFile[s.file], s)
	}

	var kept []Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		suppressed := false
		for _, s := range byFile[pos.Filename] {
			if s.analyzer == d.Analyzer && (s.line == pos.Line || s.line == pos.Line-1) {
				s.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, s := range sups {
		switch {
		case s.reason == "":
			kept = append(kept, Diagnostic{
				Pos:      s.pos,
				Message:  fmt.Sprintf("suppression needs a reason: //potlint:allow %s <reason>", s.analyzer),
				Analyzer: "suppress",
				Pkg:      s.pkg,
			})
		case !s.used && didRun[s.analyzer]:
			kept = append(kept, Diagnostic{
				Pos:      s.pos,
				Message:  fmt.Sprintf("unused suppression: no %s finding on this or the next line", s.analyzer),
				Analyzer: "suppress",
				Pkg:      s.pkg,
			})
		}
	}
	sortDiagnostics(kept)
	return kept
}

func sortDiagnostics(diags []Diagnostic) {
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && (diags[j].Pos < diags[j-1].Pos ||
			(diags[j].Pos == diags[j-1].Pos && diags[j].Analyzer < diags[j-1].Analyzer)); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

// collectSuppressions parses every //potlint:allow directive in pkgs.
func collectSuppressions(fset *token.FileSet, pkgs []*LoadedPackage) []*suppression {
	var out []*suppression
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//potlint:allow")
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					s := &suppression{pos: c.Pos(), pkg: pkg.PkgPath}
					pos := fset.Position(c.Pos())
					s.file, s.line = pos.Filename, pos.Line
					if len(fields) > 0 {
						s.analyzer = fields[0]
					}
					if len(fields) > 1 {
						s.reason = strings.Join(fields[1:], " ")
					}
					out = append(out, s)
				}
			}
		}
	}
	return out
}
