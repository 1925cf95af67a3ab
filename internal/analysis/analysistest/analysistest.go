// Package analysistest runs one analyzer over a fixture package under
// internal/analysis/testdata/src and checks its diagnostics against
// expectations written in the fixture as trailing comments:
//
//	ref.Store64(0, 1, isa.RZ) // want "without a preceding"
//
// The quoted string is a regular expression that must match the message of
// a diagnostic reported on that line; multiple quoted strings expect
// multiple diagnostics. A want may also close another comment, such as a
// //potlint:allow directive whose staleness is the expected finding. Lines
// without a want comment must produce no diagnostics. Subpackages of the
// fixture that it imports are checked the same way. This mirrors golang.org/x/tools/go/analysis/analysistest,
// which the offline build cannot vendor.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"potgo/internal/analysis"
)

// Run analyzes testdata/src/<pkgName> (relative to the caller's package
// directory) with the analyzer and reports mismatches as test errors.
//
//potlint:allow unusedexport fixture runner of the test-helper package every analyzer test in suite_test.go drives
func Run(t *testing.T, a *analysis.Analyzer, pkgName string) {
	t.Helper()
	loader, err := analysis.NewLoader("")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	fixturePath := "potgo/internal/analysis/testdata/src/" + pkgName
	if _, err := loader.Load(fixturePath); err != nil {
		t.Fatalf("loading fixture %s: %v", pkgName, err)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{a}, loader.Packages())
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	// Facts may be computed over dependencies; findings there are not the
	// fixture's.
	inFixture := func(path string) bool { return path == fixturePath || strings.HasPrefix(path, fixturePath+"/") }
	var pkgs []*analysis.LoadedPackage
	for _, p := range loader.Packages() {
		if inFixture(p.PkgPath) {
			pkgs = append(pkgs, p)
		}
	}
	diags = analysis.FilterSuppressed(diags, loader.Fset, pkgs, []*analysis.Analyzer{a})

	wants := collectWants(t, loader, pkgs)
	for _, d := range diags {
		if !inFixture(d.Pkg) {
			continue
		}
		pos := loader.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		matched := false
		for i, w := range wants[key] {
			if w.used {
				continue
			}
			if w.re.MatchString(d.Message) {
				wants[key][i].used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", key, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

type want struct {
	re   *regexp.Regexp
	used bool
}

// collectWants scans the fixture's comments for `// want "re" "re"...`.
func collectWants(t *testing.T, loader *analysis.Loader, pkgs []*analysis.LoadedPackage) map[string][]want {
	t.Helper()
	wants := make(map[string][]want)
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					_, text, ok := strings.Cut(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := loader.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
					for _, pat := range splitQuoted(t, key, text) {
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
						}
						wants[key] = append(wants[key], want{re: re})
					}
				}
			}
		}
	}
	return wants
}

// splitQuoted parses a sequence of Go-quoted strings.
func splitQuoted(t *testing.T, key, s string) []string {
	t.Helper()
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		if s[0] != '"' {
			t.Fatalf("%s: malformed want comment at %q (expected quoted regexp)", key, s)
		}
		end := 1
		for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
			end++
		}
		if end == len(s) {
			t.Fatalf("%s: unterminated quote in want comment", key)
		}
		pat, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Fatalf("%s: bad quoted pattern %q: %v", key, s[:end+1], err)
		}
		out = append(out, pat)
		s = s[end+1:]
	}
}
