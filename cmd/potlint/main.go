// Command potlint runs potgo's eight invariant analyzers over the tree (see
// internal/analysis and DESIGN.md §5h): the four persistence analyzers and
// the four concurrency/allocation analyzers (lockorder, allocorder,
// noalloc, snapshotread) built on the interprocedural summary layer:
//
//	go run ./cmd/potlint ./...
//
// It prints one line per finding (file:line:col: [analyzer] message) — or,
// with -json, one JSON object per finding — and exits non-zero if there
// are any, so CI can gate on it. Findings are silenced line-by-line with
// `//potlint:allow <analyzer> <reason>`; unused suppressions are reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"potgo/internal/analysis"
)

// jsonFinding is the -json record shape (one NDJSON object per line).
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as newline-delimited JSON records")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: potlint [flags] [packages]\n\n"+
			"Checks potgo's persistence and concurrency invariants. Packages default to ./...\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-22s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		want := make(map[string]bool)
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			fatalf("unknown analyzer %q (try -list)", n)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader("")
	if err != nil {
		fatalf("%v", err)
	}
	paths, err := loader.ExpandPatterns(patterns)
	if err != nil {
		fatalf("%v", err)
	}
	requested := make(map[string]bool, len(paths))
	for _, p := range paths {
		requested[p] = true
		if _, err := loader.Load(p); err != nil {
			fatalf("%v", err)
		}
	}

	// Analyze every loaded package (dependencies included, so facts flow),
	// but report only for the requested ones.
	diags, err := analysis.Run(analyzers, loader.Packages())
	if err != nil {
		fatalf("%v", err)
	}
	diags = analysis.FilterSuppressed(diags, loader.Fset, loader.Packages(), analyzers)
	n := 0
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if !requested[d.Pkg] {
			continue
		}
		pos := loader.Fset.Position(d.Pos)
		if *jsonOut {
			if err := enc.Encode(jsonFinding{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}); err != nil {
				fatalf("%v", err)
			}
		} else {
			fmt.Printf("%s: [%s] %s\n", pos, d.Analyzer, d.Message)
		}
		n++
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "potlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "potlint: "+format+"\n", args...)
	os.Exit(1)
}
