// Command experiments regenerates every table and figure of the paper's
// evaluation (Tables 2, 8, 9; Figures 9(a), 9(b), 10, 11, 12; and the
// dynamic-instruction-reduction claim), printing each as a text table or
// ASCII chart and optionally writing a paper-vs-measured EXPERIMENTS.md.
//
// Usage:
//
//	experiments                     # run everything at paper scale
//	experiments -exp fig9a,table8   # a subset
//	experiments -quick              # reduced operation counts (CI-sized)
//	experiments -out EXPERIMENTS.md # also write the markdown report
//	experiments -parallel 1         # serial (default: all CPUs)
//	experiments -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// The grid is run in two phases: every simulation any requested experiment
// needs is recorded up front from the experiment bodies themselves
// (harness.Suite.PrefetchExperiments) and executed on a bounded pool of
// -parallel workers, then the reports render from the warm cache.
// Each simulation is self-contained, so results are bit-identical at any
// -parallel value. Simulator throughput is reported on stderr at the end;
// the run writes no file beyond -out, -metrics-out, -trace-out and the
// profiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"potgo/internal/harness"
	"potgo/internal/obs"
	"potgo/internal/prof"
	"potgo/internal/tpcc"
)

// paperHeadline maps Report.Values keys to the paper's reported numbers for
// the paper-vs-measured summary.
var paperHeadline = []struct {
	Exp, Key, Description string
	Paper                 float64
}{
	{"table2", "geomean_insns_all", "oid_direct insns/call, ALL (Table 2 GeoMean)", 17.0},
	{"table2", "geomean_insns_each", "oid_direct insns/call, EACH (Table 2 GeoMean)", 97.3},
	{"table2", "geomean_miss_each", "predictor miss rate, EACH (Table 2 GeoMean)", 0.872},
	{"fig9a", "geomean_random_pipelined", "in-order RANDOM speedup, Pipelined (geomean)", 1.96},
	{"fig9a", "geomean_random_parallel", "in-order RANDOM speedup, Parallel (geomean)", 1.92},
	{"fig9a", "TPCC_ALL_pipelined", "TPC-C ALL speedup, in-order Pipelined", 1.10},
	{"fig9a", "TPCC_EACH_pipelined", "TPC-C EACH speedup, in-order Pipelined", 1.17},
	{"fig9b", "geomean_random_pipelined", "out-of-order RANDOM speedup, Pipelined (geomean)", 1.58},
	{"fig9b", "TPCC_EACH_pipelined", "TPC-C EACH speedup, out-of-order Pipelined", 1.12},
	{"table8", "LL_EACH_parallel_miss", "LL EACH POLB miss rate, Parallel", 0.325},
	{"table8", "BT_EACH_parallel_miss", "BT EACH POLB miss rate, Parallel", 0.025},
	{"insns", "mean_reduction", "mean dynamic-instruction reduction", 0.439},
}

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment ids, or 'all' ("+strings.Join(harness.ExperimentIDs, ",")+")")
		quick      = flag.Bool("quick", false, "reduced operation counts (fast, CI-sized)")
		seed       = flag.Int64("seed", 1, "random seed for all workloads")
		out        = flag.String("out", "", "also write a markdown report to this file")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "concurrent simulations (results are identical at any value)")
		quiet      = flag.Bool("quiet", false, "suppress per-run progress lines")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		metricsOut = flag.String("metrics-out", "", "write a JSON metrics snapshot to this file at exit")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event file of the harness phases (load in Perfetto)")
		listen     = flag.String("listen", "", "serve live metrics on this address at /debug/vars (expvar JSON)")
		progress   = flag.Duration("progress", 0, "periodic throughput/ETA report interval on stderr (0 disables)")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			code = 1
		}
		os.Exit(code)
	}

	reg := obs.NewRegistry()
	if *listen != "" {
		addr, _, err := reg.Serve(*listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: metrics at http://%s/debug/vars\n", addr)
	}
	var tw *obs.TraceWriter
	if *traceOut != "" {
		var err error
		tw, err = obs.CreateTrace(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			exit(1)
		}
	}

	opts := harness.Options{Seed: *seed, Parallel: *parallel, Obs: reg}
	if *quick {
		cfg := tpcc.TestConfig(*seed)
		opts.Ops = 400
		opts.TPCCOps = 200
		opts.TPCC = &cfg
	}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
	}
	endCfg := tw.Span(1, "config build")
	suite := harness.NewSuite(opts)
	endCfg()

	ids := harness.ExperimentIDs
	if *expFlag != "all" {
		ids = strings.Split(*expFlag, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "== prefetching simulations for %d experiment(s) on %d worker(s) ==\n",
		len(ids), suite.Options().Parallel)
	rep := obs.NewReporter(os.Stderr, "experiments", "run", *progress,
		func() (done, total float64) {
			return float64(reg.Counter("harness.runs").Value()), float64(reg.Counter("harness.runs_planned").Value())
		},
		func() string {
			return fmt.Sprintf("%.1f Minsn", float64(suite.SimulatedInstructions())/1e6)
		})
	endPrefetch := tw.Span(1, "prefetch grid")
	err = suite.PrefetchExperiments(ids)
	endPrefetch()
	rep.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: prefetch: %v\n", err)
		exit(1)
	}
	fmt.Fprintf(os.Stderr, "== prefetch done in %.1fs (%d Minsn simulated) ==\n",
		time.Since(start).Seconds(), suite.SimulatedInstructions()/1e6)

	var reports []harness.Report
	for _, id := range ids {
		expStart := time.Now()
		fmt.Fprintf(os.Stderr, "== rendering %s ==\n", id)
		endRender := tw.Span(1, "render "+id)
		rep, err := suite.RunExperiment(id)
		endRender()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "== %s done in %.1fs ==\n", id, time.Since(expStart).Seconds())
		fmt.Println(rep.Text)
		reports = append(reports, rep)
	}

	endSummary := tw.Span(1, "summary")
	summary := renderSummary(reports, *quick)
	fmt.Println(summary)
	endSummary()

	wall := time.Since(start).Seconds()
	insns := suite.SimulatedInstructions()
	mips := float64(insns) / wall / 1e6
	fmt.Fprintf(os.Stderr, "== grid complete: %d instructions simulated in %.1fs wall (%.2f simulated MIPS, parallel=%d) ==\n",
		insns, wall, mips, suite.Options().Parallel)

	if tw != nil {
		if err := tw.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: trace: %v\n", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *traceOut)
	}
	if *metricsOut != "" {
		if err := reg.WriteFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: metrics: %v\n", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsOut)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(renderMarkdown(reports, summary, *quick, *seed)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *out, err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	exit(0)
}

func renderSummary(reports []harness.Report, quick bool) string {
	var b strings.Builder
	b.WriteString("Paper vs measured (headline numbers)\n")
	fmt.Fprintf(&b, "%-50s %10s %10s\n", "metric", "paper", "measured")
	b.WriteString(strings.Repeat("-", 72) + "\n")
	byID := map[string]harness.Report{}
	for _, r := range reports {
		byID[r.ID] = r
	}
	for _, h := range paperHeadline {
		rep, ok := byID[h.Exp]
		if !ok {
			continue
		}
		v, ok := rep.Values[h.Key]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-50s %10.3f %10.3f\n", h.Description, h.Paper, v)
	}
	if quick {
		b.WriteString("(quick mode: reduced operation counts; run without -quick for paper scale)\n")
	}
	return b.String()
}

func renderMarkdown(reports []harness.Report, summary string, quick bool, seed int64) string {
	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs measured\n\n")
	b.WriteString("Reproduction of the evaluation of *Hardware Supported Persistent Object\n")
	b.WriteString("Address Translation* (Wang et al., MICRO 2017). Generated by\n")
	fmt.Fprintf(&b, "`go run ./cmd/experiments -out EXPERIMENTS.md` (seed %d", seed)
	if quick {
		b.WriteString(", **quick mode — reduced scale**")
	} else {
		b.WriteString(", paper-scale operation counts")
	}
	b.WriteString(").\n\n")
	b.WriteString("Absolute numbers are not expected to match a Sniper-modelled Xeon — the\n")
	b.WriteString("substrate is a from-scratch simulator — but the *shape* (who wins, by\n")
	b.WriteString("roughly what factor, where crossovers fall) should track the paper.\n\n")
	b.WriteString("## Headline comparison\n\n```\n")
	b.WriteString(summary)
	b.WriteString("```\n")
	for _, r := range reports {
		fmt.Fprintf(&b, "\n## %s\n\n```\n%s```\n", r.Title, r.Text)
	}
	return b.String()
}
