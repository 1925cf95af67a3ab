// Command experiments regenerates every table and figure of the paper's
// evaluation (Tables 2, 8, 9; Figures 9(a), 9(b), 10, 11, 12; and the
// dynamic-instruction-reduction claim), printing each as a text table or
// ASCII chart and optionally writing a paper-vs-measured EXPERIMENTS.md.
// With -spec it runs named simulations instead and prints each one's
// statistics block.
//
// Usage:
//
//	experiments                     # run everything at paper scale
//	experiments -exp fig9a,table8   # a subset
//	experiments -quick              # reduced operation counts (CI-sized)
//	experiments -out EXPERIMENTS.md # also write the markdown report
//	experiments -parallel 1         # serial (default: all CPUs)
//	experiments -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	experiments -spec LL/RANDOM/OPT/Pipelined/in-order:ops=500:seed=1
//	experiments -spec TPCC/EACH/BASE/out-of-order:tpcc=test,B+T/EACH/OPT/Parallel/in-order:polb=4
//
// A spec is the name harness.RunSpec.String gives a run (README, "Run one
// simulation"). Under -spec, -trace-out adds the sampled pipeline lanes,
// and -exp, -quick, -seed, -out, -parallel, -quiet and -progress are usage
// errors.
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
		specFlag   = flag.String("spec", "", "comma-separated run specs (e.g. LL/RANDOM/OPT/Pipelined/in-order:ops=500): run each and print its statistics")
	)
	flag.Parse()

	var specs []harness.RunSpec
	if *specFlag != "" {
		if err := specConflict(flag.CommandLine); err != nil {
			usage(err)
		}
		for _, str := range strings.Split(*specFlag, ",") {
			spec, err := harness.ParseSpec(str)
			if err != nil {
				usage(err)
			}
			specs = append(specs, spec)
		}
	}

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
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		exit(1)
	}

	reg := obs.NewRegistry()
	if *listen != "" {
		addr, _, err := reg.Serve(*listen)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "experiments: metrics at http://%s/debug/vars\n", addr)
	}
	var tw *obs.TraceWriter
	if *traceOut != "" {
		if tw, err = obs.CreateTrace(*traceOut); err != nil {
			fail(err)
		}
	}

	if specs != nil {
		err = simulate(specs, reg, tw)
	} else {
		opts := harness.Options{Seed: *seed, Parallel: *parallel, Obs: reg}
		if *quick {
			opts.Ops, opts.TPCCOps, opts.TPCC = 400, 200, true
		}
		if !*quiet {
			opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
		}
		ids := harness.ExperimentIDs
		if *expFlag != "all" {
			ids = strings.Split(*expFlag, ",")
			for i := range ids {
				ids[i] = strings.TrimSpace(ids[i])
			}
		}
		err = grid(ids, opts, reg, tw, *progress, *quick, *out)
	}
	if err != nil {
		fail(err)
	}

	if tw != nil {
		if err := tw.Close(); err != nil {
			fail(fmt.Errorf("trace: %w", err))
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *traceOut)
	}
	if *metricsOut != "" {
		if err := reg.WriteFile(*metricsOut); err != nil {
			fail(fmt.Errorf("metrics: %w", err))
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsOut)
	}
	exit(0)
}

// specConflict reports a set flag that -spec does not read: the grid's
// -exp, -quick, -seed and -out, and -parallel, -quiet and -progress, since
// the specs run one after another and print no progress.
func specConflict(fs *flag.FlagSet) (err error) {
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "exp", "quick", "seed", "out", "parallel", "quiet", "progress":
			if err == nil {
				err = fmt.Errorf("-spec cannot be combined with -%s", f.Name)
			}
		}
	})
	return err
}

func usage(err error) {
	fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
	os.Exit(2)
}

// simulate runs each spec on its own and prints its statistics block; the
// block is deterministic for a given spec.
func simulate(specs []harness.RunSpec, reg *obs.Registry, tw *obs.TraceWriter) error {
	for i, spec := range specs {
		start := time.Now()
		endSim := tw.Span(1, "simulate "+spec.String())
		res, err := harness.RunObserved(spec, harness.RunObs{Metrics: reg, Trace: tw})
		endSim()
		if err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		fmt.Fprintf(os.Stderr, "experiments: simulated %d instructions in %.2fs (%.2f simulated MIPS)\n",
			res.CPU.Instructions, wall, float64(res.CPU.Instructions)/wall/1e6)
		if i > 0 {
			fmt.Println()
		}
		printStats(res)
	}
	return nil
}

func printStats(res harness.RunResult) {
	fmt.Printf("configuration   %s\n", res.Spec)
	fmt.Printf("cycles          %d\n", res.CPU.Cycles)
	fmt.Printf("instructions    %d\n", res.CPU.Instructions)
	fmt.Printf("IPC             %.3f\n", res.CPU.IPC())
	fmt.Printf("checksum        %#x\n", res.Checksum)
	fmt.Printf("pools           %d\n", res.Pools)
	fmt.Printf("branches        %d (%.2f%% mispredicted)\n", res.CPU.BranchLookups, 100*res.CPU.MispredictRate())
	fmt.Printf("mem stalls      %d cycles\n", res.CPU.MemStallCycles)
	fmt.Printf("instruction mix %s\n", res.CPU.Mix.String())
	m := res.CPU.Mem
	fmt.Printf("L1D             %d accesses, %.2f%% miss\n", m.L1D.Accesses(), 100*m.L1D.MissRate())
	fmt.Printf("L2              %d accesses, %.2f%% miss\n", m.L2.Accesses(), 100*m.L2.MissRate())
	fmt.Printf("L3              %d accesses, %.2f%% miss\n", m.L3.Accesses(), 100*m.L3.MissRate())
	fmt.Printf("D-TLB           %d accesses, %.2f%% miss\n", m.DTLB.Accesses(), 100*m.DTLB.MissRate())
	fmt.Printf("CLWBs           %d\n", m.CLWBs)
	if res.Spec.Opt {
		tr := res.CPU.Translation
		fmt.Printf("translations    %d (POLB hits %d, misses %d, %.2f%% miss)\n",
			tr.Translations, tr.POLBHits, tr.POLBMisses, 100*res.CPU.POLB.MissRate())
		fmt.Printf("POT walks       %d\n", tr.POTWalks)
		fmt.Printf("trans stalls    %d cycles\n", res.CPU.TransStallCycles)
	} else {
		fmt.Printf("oid_direct      %d calls, %.1f insns/call, %.1f%% predictor miss\n",
			res.Soft.Calls, res.Soft.InsnsPerCall(), 100*res.Soft.PredictorMissRate())
	}
}

// grid prefetches every simulation the experiments need, renders their
// reports and the paper-vs-measured summary to stdout, and writes the
// markdown report to out when it is set.
func grid(ids []string, opts harness.Options, reg *obs.Registry, tw *obs.TraceWriter,
	progress time.Duration, quick bool, out string) error {
	endCfg := tw.Span(1, "config build")
	suite := harness.NewSuite(opts)
	endCfg()

	start := time.Now()
	fmt.Fprintf(os.Stderr, "== prefetching simulations for %d experiment(s) on %d worker(s) ==\n",
		len(ids), suite.Options().Parallel)
	rep := obs.NewReporter(os.Stderr, "experiments", "run", progress,
		func() (done, total float64) {
			return float64(reg.Counter("harness.runs").Value()), float64(reg.Counter("harness.runs_planned").Value())
		},
		func() string {
			return fmt.Sprintf("%.1f Minsn", float64(suite.SimulatedInstructions())/1e6)
		})
	endPrefetch := tw.Span(1, "prefetch grid")
	err := suite.PrefetchExperiments(ids)
	endPrefetch()
	rep.Stop()
	if err != nil {
		return fmt.Errorf("prefetch: %w", err)
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
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintf(os.Stderr, "== %s done in %.1fs ==\n", id, time.Since(expStart).Seconds())
		fmt.Println(rep.Text)
		reports = append(reports, rep)
	}

	endSummary := tw.Span(1, "summary")
	summary := renderSummary(reports, quick)
	fmt.Println(summary)
	endSummary()

	wall := time.Since(start).Seconds()
	insns := suite.SimulatedInstructions()
	mips := float64(insns) / wall / 1e6
	fmt.Fprintf(os.Stderr, "== grid complete: %d instructions simulated in %.1fs wall (%.2f simulated MIPS, parallel=%d) ==\n",
		insns, wall, mips, suite.Options().Parallel)

	if out == "" {
		return nil
	}
	if err := os.WriteFile(out, []byte(renderMarkdown(reports, summary, quick, opts.Seed)), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", out, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	return nil
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
