// Package analysis is potgo's static-analysis suite: four analyzers that
// machine-check the persistence invariants the pmem/pds code must follow for
// crash consistency (see DESIGN.md "Persistence invariants"):
//
//   - touchbeforestore: in-place stores to persistent objects inside a
//     transactional context must be preceded by an undo-log snapshot
//     (Ctx.Touch / Tx.AddRange) of the stored object.
//   - persistbeforepublish: an ObjectID may only be linked into another
//     persistent object after the referenced object is durable (Persist) or
//     the link target is undo-logged (Touch).
//   - refescape: Deref-derived Refs are raw views into mapped pool memory;
//     they must not outlive the mapping (escape the API surface, or be used
//     across Close/Crash/Recover/Tx.Abort).
//   - emitbalance: every path that emits CLWBs must emit a trailing SFENCE
//     before returning, unless the function's name declares it unfenced
//     ("NoFence").
//
// potlint v2 adds an interprocedural layer (summary.go: per-function facts
// about shard locks acquired/released, fences issued and allocation
// behaviour, propagated through the FactStore in package dependency order)
// and four concurrency/allocation analyzers over it:
//
//   - lockorder: shard/pool locks are acquired at most one set at a time
//     (multi-shard sets go through the ascending mask/scoped helpers), the
//     shard sets those helpers lock by are sorted and deduplicated before
//     acquisition, and sharded mutex state is only locked directly inside
//     the owner type's designated helpers.
//   - allocorder: the allocator's write-ahead order — a transactional
//     occupancy-bit publication must be dominated by a durable log record,
//     and a free-list-head publication by the span header's persist.
//   - noalloc: functions annotated //potlint:noalloc contain no allocating
//     constructs and call nothing that allocates (the static form of the
//     0-allocs/op benchmark gates).
//   - snapshotread: functions annotated //potlint:snapshot-read (the MVCC
//     read path) take no shard locks and mutate nothing.
//
// The ninth, unusedexport (unusedexport.go), is whole-program: it reports
// exported identifiers that no non-test file references. It runs through
// Analyzer.Program once every package has been visited, and Lint, the
// driver, always loads the whole module so a partial run sees every
// caller.
//
// Findings are suppressed line-by-line with `//potlint:allow <analyzer>
// <reason>` (suppress.go); unused suppressions are themselves findings.
//
// The package mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic, facts) but is self-contained on the standard
// library: the build environment is offline, so x/tools cannot be vendored.
// Analyzers therefore work on typed ASTs with a flow-sensitive walker
// (flow.go) rather than SSA; the abstractions are conservative where SSA
// would be exact, and each analyzer documents its over- and
// under-approximations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one analysis: a name, documentation, and a Run
// function applied to one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is the analyzer's documentation, first sentence first.
	Doc string
	// Requires lists analyzers whose facts this one consumes; the driver
	// runs them first (over every package) even when they were not
	// requested. Required analyzers typically report nothing themselves.
	Requires []*Analyzer
	// Run applies the analyzer to one package, reporting diagnostics and
	// exporting facts through the pass.
	Run func(*Pass) error
	// Program, if set, runs once after Run has visited every package, with
	// one pass per package in load order: the hook for whole-program
	// checks, which report through the pass of the package a finding is in.
	Program func([]*Pass) error
}

// Pass is the interface between one analyzer and one package being
// analyzed, mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// facts is the driver-wide fact store, shared across packages so
	// facts exported while analyzing a dependency are visible when its
	// importers are analyzed (packages are processed in dependency
	// order).
	facts *FactStore

	diagnostics []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
	Pkg      string // import path of the package the finding is in
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
		Pkg:      p.Pkg.Path(),
	})
}

// ExportObjectFact attaches a fact to obj, visible to later passes of the
// same analyzer over importing packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact any) {
	p.facts.put(p.Analyzer, obj, fact)
}

// ImportObjectFact returns the fact attached to obj by this analyzer, or
// nil.
func (p *Pass) ImportObjectFact(obj types.Object) any {
	return p.facts.get(p.Analyzer, obj)
}

// Summary returns the interprocedural summary the Summaries analyzer
// exported for obj (a *types.Func), or nil. Analyzers that consume
// summaries must list Summaries in their Requires.
func (p *Pass) Summary(obj types.Object) *FuncSummary {
	if obj == nil {
		return nil
	}
	s, _ := p.facts.get(Summaries, obj).(*FuncSummary)
	return s
}

// FactStore holds analyzer-scoped object facts for one driver run. All
// packages in a run share one type-checker universe, so types.Object
// identity is stable across packages.
type FactStore struct {
	m map[factKey]any
}

type factKey struct {
	analyzer *Analyzer
	obj      types.Object
}

// NewFactStore returns an empty fact store.
func NewFactStore() *FactStore { return &FactStore{m: make(map[factKey]any)} }

func (s *FactStore) put(a *Analyzer, obj types.Object, fact any) {
	s.m[factKey{a, obj}] = fact
}

func (s *FactStore) get(a *Analyzer, obj types.Object) any {
	return s.m[factKey{a, obj}]
}

// expand returns analyzers with every (transitive) requirement inserted
// before its dependents, deduplicated.
func expand(analyzers []*Analyzer) []*Analyzer {
	var out []*Analyzer
	seen := make(map[*Analyzer]bool)
	var visit func(a *Analyzer)
	visit = func(a *Analyzer) {
		if seen[a] {
			return
		}
		seen[a] = true
		for _, r := range a.Requires {
			visit(r)
		}
		out = append(out, a)
	}
	for _, a := range analyzers {
		visit(a)
	}
	return out
}

// Run applies each analyzer (requirements first) to each package in order
// and returns all diagnostics sorted by position. Packages must be in
// dependency order for facts to flow from dependencies to importers.
func Run(analyzers []*Analyzer, pkgs []*LoadedPackage) ([]Diagnostic, error) {
	facts := NewFactStore()
	var diags []Diagnostic
	for _, a := range expand(analyzers) {
		passes := make([]*Pass, len(pkgs))
		for i, pkg := range pkgs {
			passes[i] = &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				facts:     facts,
			}
			if a.Run == nil {
				continue
			}
			if err := a.Run(passes[i]); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		if a.Program != nil {
			if err := a.Program(passes); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		}
		for _, pass := range passes {
			diags = append(diags, pass.diagnostics...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// Lint is the potlint driver: it loads every package of the module
// enclosing the working directory plus the packages patterns name, runs
// analyzers over all of them — so a whole-program analyzer sees every
// reference even when patterns name one package — and returns the findings
// in the named packages, suppressions applied.
func Lint(analyzers []*Analyzer, patterns []string) (*Loader, []Diagnostic, error) {
	loader, err := NewLoader("")
	if err != nil {
		return nil, nil, err
	}
	module, err := loader.ExpandPatterns([]string{"./..."})
	if err != nil {
		return nil, nil, err
	}
	paths, err := loader.ExpandPatterns(patterns)
	if err != nil {
		return nil, nil, err
	}
	requested := make(map[string]bool, len(paths))
	for _, p := range paths {
		requested[p] = true
	}
	for _, p := range append(module, paths...) {
		if _, err := loader.Load(p); err != nil {
			return nil, nil, err
		}
	}
	diags, err := Run(analyzers, loader.Packages())
	if err != nil {
		return nil, nil, err
	}
	var kept []Diagnostic
	for _, d := range FilterSuppressed(diags, loader.Fset, loader.Packages(), analyzers) {
		if requested[d.Pkg] {
			kept = append(kept, d)
		}
	}
	return loader, kept, nil
}

// All returns the full potlint suite in a fixed order: the four
// persistence analyzers, the four concurrency/allocation analyzers, then
// the whole-program unusedexport.
func All() []*Analyzer {
	return []*Analyzer{
		TouchBeforeStore,
		PersistBeforePublish,
		RefEscape,
		EmitBalance,
		LockOrder,
		AllocOrder,
		NoAlloc,
		SnapshotRead,
		UnusedExport,
	}
}
