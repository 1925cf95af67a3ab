// Command potcrash runs adversarial crash-injection campaigns against the
// persistent heap and what is built on it (internal/crashtest). -campaign
// picks one: the per-target sweep (the default) crashes each structure's
// transactional workload under a line-loss adversary, recovers from the
// surviving durable bytes and verifies invariants against a deterministic
// model; mvcc, cluster and repair crash a whole concurrent world — an MVCC
// store, a replicated cluster, a fault-tolerant store mid-scrub. A run
// starts from the campaign's defaults (crashtest.Default) and applies only
// the flags given; a flag the campaign does not read is a usage error.
//
// Usage:
//
//	potcrash [flags]                             run the sweep over all targets
//	potcrash -campaign mvcc|cluster|repair       run a whole-world campaign
//	potcrash -mutate drop-clwb -expect-failure   prove a seeded bug is caught
//	potcrash -replay 'rbt@267#none' ...          reproduce one recorded case
//
// The exit status is 0 when every case passes, 1 when any fails and 2 on
// a usage error; -expect-failure swaps 0 and 1, for CI mutation checks
// that must prove the engine catches the bug -mutate seeds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"potgo/internal/crashtest"
	"potgo/internal/harness"
	"potgo/internal/nvmsim"
	"potgo/internal/obs"
	"potgo/internal/pmem"
)

// config is one potcrash command line: the campaign's options plus what
// the command does around them.
type config struct {
	opt                         crashtest.Options
	targets, replay             string
	jsonOut, metricsOut, listen string
	progress                    time.Duration
	expectFail, ftOverhead      bool
}

// campaignFlags lists the flags each campaign reads beyond commonFlags; a
// flag outside both is a usage error.
var (
	commonFlags   = []string{"campaign", "seed", "ops", "points", "policies", "mutate", "expect-failure", "json", "metrics-out", "listen"}
	campaignFlags = map[crashtest.Campaign][]string{
		crashtest.Sweep:   {"targets", "max-failures", "no-minimize", "replay", "progress", "ft-overhead"},
		crashtest.MVCC:    {"workers", "shards"},
		crashtest.Cluster: {"nodes", "workers", "shards"},
		crashtest.Repair:  {"shards", "corrupt-k", "corrupt-mode", "scrub"},
	}
)

// newFlags defines potcrash's flags over opt and cfg, defaulting to what
// they already hold.
func newFlags(opt *crashtest.Options, cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("potcrash", flag.ContinueOnError)
	fs.StringVar((*string)(&opt.Campaign), "campaign", string(opt.Campaign), "campaign: sweep (per target), mvcc, cluster or repair; unset flags keep its defaults")
	fs.Uint64Var(&opt.Seed, "seed", opt.Seed, "campaign seed: workload streams, crash points, policy seeds")
	fs.IntVar(&opt.Ops, "ops", opt.Ops, "workload size: transactions per case (sweep), ops per worker (mvcc, cluster), ops after the fill (repair)")
	fs.IntVar(&opt.Points, "points", opt.Points, "crash points: per target, <= 0 exhaustive (sweep); in all (mvcc, cluster); rounds (repair)")
	fs.Func("policies", "comma-separated adversaries (drop-all,keep-random,torn); default: the campaign's", func(s string) error {
		opt.Policies = nil
		for _, name := range strings.Split(s, ",") {
			k, err := nvmsim.ParseKind(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			opt.Policies = append(opt.Policies, k)
		}
		return nil
	})
	fs.StringVar((*string)(&opt.Mutation), "mutate", string(opt.Mutation), "seeded bug the campaign must catch (pair with -expect-failure): drop-clwb, drop-fence (sweep), stale-read (mvcc), split-brain, ack-before-quorum (cluster), no-parity (repair)")
	fs.BoolVar(&cfg.expectFail, "expect-failure", false, "invert the exit status: succeed only if the campaign finds a failure")
	fs.StringVar(&cfg.jsonOut, "json", "", "write the campaign summary as JSON to this file ('-' for stdout)")
	fs.StringVar(&cfg.metricsOut, "metrics-out", "", "write a JSON metrics snapshot to this file at exit")
	fs.StringVar(&cfg.listen, "listen", "", "serve live metrics on this address at /debug/vars (expvar JSON)")
	fs.StringVar(&cfg.targets, "targets", "all", "sweep: comma-separated targets, or 'all' (list,bst,rbt,btree,bplus,alloc,tpcc)")
	fs.IntVar(&opt.MaxFailures, "max-failures", opt.MaxFailures, "sweep: stop a target after this many failures")
	fs.BoolFunc("no-minimize", "sweep: skip counterexample minimization on failures", func(s string) error {
		off, err := strconv.ParseBool(s)
		opt.Minimize = !off
		return err
	})
	fs.StringVar(&cfg.replay, "replay", "", "sweep: reproduce one case from its replay token instead of sweeping")
	fs.DurationVar(&cfg.progress, "progress", 0, "sweep: periodic cases/sec + ETA report interval on stderr (0 disables)")
	fs.BoolVar(&cfg.ftOverhead, "ft-overhead", false, "measure and print the FT checksum+parity tax on the Table 5 micros and durable TPC-C (plain vs fault-tolerant pools) and the get-path verify tax")
	fs.IntVar(&opt.Nodes, "nodes", opt.Nodes, "cluster: member count (>= 3)")
	fs.IntVar(&opt.Workers, "workers", opt.Workers, "mvcc, cluster: worker goroutines")
	fs.IntVar(&opt.Shards, "shards", opt.Shards, "mvcc, cluster, repair: heap lock shards")
	fs.IntVar(&opt.K, "corrupt-k", opt.K, "repair: single-bit media faults per round")
	fs.Func("corrupt-mode", "repair: fault flavor, detect (payload bits) or silent (checksum/parity bits)", func(s string) (err error) {
		opt.Mode, err = pmem.ParseCorruptMode(s)
		return err
	})
	fs.BoolVar(&opt.CrashMidScrub, "scrub", opt.CrashMidScrub, "repair: arm a power failure inside each round's scrub pass")
	return fs
}

// parseArgs reads a command line. The run starts from
// crashtest.Default(-campaign) and applies only the flags that were set;
// a flag the campaign does not read is an error.
func parseArgs(args []string) (config, error) {
	var cfg config
	probe := crashtest.Options{Campaign: crashtest.Sweep}
	if err := newFlags(&probe, &cfg).Parse(args); err != nil {
		return cfg, err
	}
	reads, ok := campaignFlags[probe.Campaign]
	if !ok {
		return cfg, fmt.Errorf("unknown campaign %q (sweep, mvcc, cluster or repair)", probe.Campaign)
	}
	cfg = config{opt: crashtest.Default(probe.Campaign)}
	fs := newFlags(&cfg.opt, &cfg)
	fs.SetOutput(io.Discard) // the first parse already reported any error
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	err := cfg.opt.Check()
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(commonFlags, f.Name) && !slices.Contains(reads, f.Name) {
			err = fmt.Errorf("the %s campaign does not read -%s", probe.Campaign, f.Name)
		}
	})
	return cfg, err
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "potcrash: %v\n", err)
		os.Exit(2)
	}
	if cfg.ftOverhead {
		os.Exit(runFTOverhead(cfg.opt.Seed, cfg.opt.Ops))
	}
	reg := obs.NewRegistry()
	cfg.opt.Obs = reg
	if cfg.listen != "" {
		addr, _, err := reg.Serve(cfg.listen)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "potcrash: metrics at http://%s/debug/vars\n", addr)
	}
	if cfg.replay != "" {
		os.Exit(replay(cfg.replay, cfg.opt, cfg.expectFail))
	}

	doc, failed, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.jsonOut != "" {
		if err := writeJSON(cfg.jsonOut, doc); err != nil {
			fatal(err)
		}
	}
	if cfg.metricsOut != "" {
		if err := reg.WriteFile(cfg.metricsOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", cfg.metricsOut)
	}
	os.Exit(status(failed, cfg.expectFail))
}

// run runs cfg's campaign, printing its verdict, and returns the -json
// document and whether the campaign found a failure. A whole-world
// campaign's error is its failure, recorded in the document; an error
// from the sweep engine itself is returned.
func run(cfg config) (doc campaign, failed bool, err error) {
	doc = campaign{Options: cfg.opt}
	for _, k := range cfg.opt.Policies {
		doc.Policies = append(doc.Policies, k.String())
	}
	start := time.Now()
	if cfg.opt.Campaign == crashtest.Sweep {
		failed, err = sweep(cfg, &doc)
	} else {
		sum, rerr := crashtest.Run(cfg.opt)
		doc.Summaries = []fmt.Stringer{sum}
		verdict := fmt.Sprint(sum)
		if failed = rerr != nil; failed {
			doc.Error = rerr.Error()
			verdict = "FAIL: " + doc.Error
		}
		fmt.Printf("%s campaign: %s (%.1fs)\n", cfg.opt.Campaign, verdict, time.Since(start).Seconds())
	}
	doc.Wall = time.Since(start).Seconds()
	return doc, failed, err
}

// sweep runs the per-target campaign over cfg's targets into doc,
// printing each target's summary and the campaign total.
func sweep(cfg config, doc *campaign) (failed bool, err error) {
	opt := cfg.opt
	targets, err := selectTargets(cfg.targets, opt.Seed)
	if err != nil {
		return false, err
	}
	start := time.Now()
	reg := opt.Obs
	prog := obs.NewReporter(os.Stderr, "potcrash", "case", cfg.progress,
		func() (done, total float64) {
			// cases_planned grows as each target sizes its sweep, so the
			// ETA refines target by target.
			return float64(reg.Counter("crashtest.cases_explored").Value()),
				float64(reg.Counter("crashtest.cases_planned").Value())
		},
		func() string {
			return fmt.Sprintf("%d/%d targets", reg.Counter("crashtest.targets_completed").Value(), len(targets))
		})
	var summaries []crashtest.Summary
	var span uint64
	var points, cases, failures int
	for _, tg := range targets {
		var sum crashtest.Summary
		if sum, err = crashtest.RunTarget(tg, opt); err != nil {
			break
		}
		summaries = append(summaries, sum)
		printSummary(sum)
		span += sum.Span
		points += sum.Points
		cases += sum.Cases
		failures += len(sum.Failures)
	}
	prog.Stop()
	if err != nil {
		return false, err
	}
	fmt.Printf("campaign: %d targets, %d events spanned, %d points, %d cases, %d failures (%.1fs)\n",
		len(summaries), span, points, cases, failures, time.Since(start).Seconds())
	doc.Summaries = summaries
	return failures > 0, nil
}

// runFTOverhead prices media-fault tolerance on whole benchmarks: every
// Table 5 micro (durable) and the durable TPC-C mix run over plain and
// fault-tolerant pools, and the per-op wall-time pairs are printed next to
// the KV get-path verify numbers.
func runFTOverhead(seed uint64, ops int) int {
	// The crash campaigns default -ops to a per-case transaction count
	// far too small to time; below that threshold use measurement-sized
	// runs instead.
	microOps, tpccOps := 20000, 300
	if ops > 100 {
		microOps = ops
		tpccOps = ops / 20
	}
	rows, err := harness.MeasureFTOverhead(nil, microOps, tpccOps, int64(seed))
	if err != nil {
		fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%-4s %6d ops: %8.0f ns/op plain, %8.0f ns/op FT (%+.1f%%)\n",
			r.Bench, r.Ops, r.PlainNs, r.FTNs, 100*r.Overhead())
	}
	plainNs, verifyNs, err := harness.MeasureVerifyOverhead(2048, 50000, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("get path: %.0f ns plain, %.0f ns verified (%+.1f%%)\n",
		plainNs, verifyNs, 100*(verifyNs-plainNs)/plainNs)
	return 0
}

// replay reproduces one recorded case and reports whether it still fails.
func replay(tok string, opt crashtest.Options, expectFail bool) int {
	name, event, keep, err := crashtest.ParseReplayToken(tok)
	if err != nil {
		fatal(err)
	}
	tg, err := crashtest.TargetByName(name, opt.Seed)
	if err != nil {
		fatal(err)
	}
	if err := crashtest.Replay(tg, opt, event, keep); err != nil {
		fmt.Printf("replay %s: FAIL: %v\n", tok, err)
		return status(true, expectFail)
	}
	fmt.Printf("replay %s: pass\n", tok)
	return status(false, expectFail)
}

func selectTargets(spec string, seed uint64) ([]crashtest.Target, error) {
	if spec == "all" {
		return crashtest.Targets(seed), nil
	}
	var out []crashtest.Target
	for _, name := range strings.Split(spec, ",") {
		tg, err := crashtest.TargetByName(strings.TrimSpace(name), seed)
		if err != nil {
			return nil, err
		}
		out = append(out, tg)
	}
	return out, nil
}

func printSummary(sum crashtest.Summary) {
	mode := "sampled"
	if sum.Exhaustive {
		mode = "exhaustive"
	}
	fmt.Printf("%-6s span %5d events, %3d points (%s), %4d cases, %d failures\n",
		sum.Target, sum.Span, sum.Points, mode, sum.Cases, len(sum.Failures))
	for _, f := range sum.Failures {
		fmt.Printf("  FAIL %s [%s seed %d, %d lines lost]\n", f.ReplayToken(), f.Policy, f.Seed, f.Dropped)
		fmt.Printf("       %s\n", f.Err)
		if len(f.MinLost) > 0 {
			fmt.Printf("       minimal counterexample: %s\n", strings.Join(f.MinLost, " "))
		}
	}
}

// campaign is the -json output shape: the per-target sweep's summaries, or
// the one summary of a whole-world campaign with the error it ended on.
type campaign struct {
	Options   any      `json:"options"`
	Policies  []string `json:"policies"`
	Summaries any      `json:"summaries"`
	Wall      float64  `json:"wall_seconds"`
	Error     string   `json:"error,omitempty"`
}

func writeJSON(path string, c campaign) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// status folds -expect-failure into the exit code.
func status(failed, expectFail bool) int {
	if failed != expectFail {
		if expectFail {
			fmt.Fprintln(os.Stderr, "potcrash: expected the campaign to find a failure, but it passed")
		}
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "potcrash: %v\n", err)
	os.Exit(1)
}
