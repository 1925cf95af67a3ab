// Command potcrash runs adversarial crash-injection campaigns against the
// persistent heap and its client structures (internal/crashtest). Each
// campaign sweeps crash points over a target's transactional workload,
// crashes the volatile persistence domain under a line-loss adversary,
// recovers from the surviving durable bytes and verifies invariants against
// a deterministic model.
//
// Usage:
//
//	potcrash [flags]                      run a campaign
//	potcrash -replay 'rbt@267#none' ...   reproduce one recorded case
//
// The exit status is 0 when every case passes and 1 when any fails;
// -expect-failure inverts that, for CI mutation checks that must prove the
// engine catches an injected missing-flush bug.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"potgo/internal/crashtest"
	"potgo/internal/harness"
	"potgo/internal/nvmsim"
	"potgo/internal/obs"
	"potgo/internal/pmem"
)

func main() {
	var (
		targetsFlag = flag.String("targets", "all", "comma-separated targets, or 'all' (list,bst,rbt,btree,bplus,alloc,tpcc)")
		seed        = flag.Uint64("seed", 1, "campaign seed: workload streams, point sampling, policy seeds")
		ops         = flag.Int("ops", 12, "workload transactions per case")
		points      = flag.Int("points", 48, "max crash points per target (<=0: exhaustive)")
		policies    = flag.String("policies", "drop-all,torn", "comma-separated adversaries (drop-all,keep-random,torn)")
		maxFailures = flag.Int("max-failures", 1, "stop a target's campaign after this many failures")
		noMinimize  = flag.Bool("no-minimize", false, "skip counterexample minimization on failures")
		mutCLWB     = flag.Int("mutate-drop-clwb", 0, "bug injection: drop every Nth cache-line write-back (1 = all)")
		mutFence    = flag.Int("mutate-drop-fence", 0, "bug injection: drop every Nth store fence (1 = all)")
		expectFail  = flag.Bool("expect-failure", false, "invert the exit status: succeed only if the campaign finds a failure")
		jsonOut     = flag.String("json", "", "write the campaign summary as JSON to this file ('-' for stdout)")
		replayTok   = flag.String("replay", "", "reproduce one case from its replay token instead of sweeping")
		metricsOut  = flag.String("metrics-out", "", "write a JSON metrics snapshot to this file at exit")
		listen      = flag.String("listen", "", "serve live metrics on this address at /debug/vars (expvar JSON)")
		progress    = flag.Duration("progress", 0, "periodic cases/sec + ETA report interval on stderr (0 disables)")
		mvccFlag    = flag.Bool("mvcc", false, "run the MVCC campaign: crash a journaled snapshot-read workload with concurrent epoch reclamation (-workers/-shards; -ops is per worker, -points crash points)")
		clusterFlag = flag.Bool("cluster", false, "run the cluster campaign: kill a whole replicated potserve node mid-replication, fail over, verify acked-prefix linearizability (-nodes/-workers/-shards; -ops is per worker, -points kill points)")
		nodes       = flag.Int("nodes", 3, "cluster campaign: member count (>= 3)")
		mutSplit    = flag.Bool("mutate-split-brain", false, "bug injection: disable the stale-epoch fence and stage two primaries (cluster campaign must fail; pair with -expect-failure)")
		mutAck      = flag.Bool("mutate-ack-before-quorum", false, "bug injection: coordinators answer a burst's writes before replicating them (cluster campaign must fail; pair with -expect-failure)")
		mutStale    = flag.Bool("mutate-stale-read", false, "bug injection: freeze snapshot pins at a stale epoch (MVCC campaign must fail; pair with -expect-failure)")
		workers     = flag.Int("workers", 4, "MVCC and cluster campaigns: worker goroutines")
		shards      = flag.Int("shards", 4, "MVCC, cluster and repair campaigns: heap lock shards")
		ftOverhead  = flag.Bool("ft-overhead", false, "measure and print the FT checksum+parity tax on the Table 5 micros and durable TPC-C (plain vs fault-tolerant pools) and the get-path verify tax")
		corruptK    = flag.Int("corrupt-k", 0, "repair campaign: single-bit media faults per round (>0 selects the corrupt-scrub-verify campaign)")
		corruptMode = flag.String("corrupt-mode", "detect", "repair campaign fault flavor: detect (payload bits) or silent (checksum/parity bits)")
		scrubCrash  = flag.Bool("scrub", false, "repair campaign: arm a power failure inside each round's scrub pass (-points rounds)")
		mutNoParity = flag.Bool("mutate-no-parity", false, "bug injection: let the parity column go stale under part of the workload (repair campaign must fail)")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	if *listen != "" {
		addr, _, err := reg.Serve(*listen)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "potcrash: metrics at http://%s/debug/vars\n", addr)
	}

	opt := crashtest.Options{
		Obs:         reg,
		Seed:        *seed,
		Ops:         *ops,
		MaxPoints:   *points,
		MaxFailures: *maxFailures,
		Minimize:    !*noMinimize,
		Mutate: crashtest.MutationSpec{
			DropCLWBEveryN:  *mutCLWB,
			DropFenceEveryN: *mutFence,
		},
	}
	var polNames []string
	for _, s := range strings.Split(*policies, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		k, err := nvmsim.ParseKind(s)
		if err != nil {
			fatal(err)
		}
		opt.Policies = append(opt.Policies, k)
		polNames = append(polNames, s)
	}
	if len(opt.Policies) == 0 {
		fatal(fmt.Errorf("potcrash: no policies selected"))
	}

	if *replayTok != "" {
		os.Exit(replay(*replayTok, opt, *expectFail))
	}

	if *clusterFlag || *mvccFlag {
		copt := crashtest.DefaultConcurrentOptions()
		copt.Seed = *seed
		copt.Workers = *workers
		copt.Shards = *shards
		copt.OpsPerWorker = *ops
		copt.Points = *points
		copt.Policies = opt.Policies
		copt.Obs = reg
		kind := "mvcc"
		if *clusterFlag {
			kind = "cluster"
		}
		c, verdict := runCampaign(kind, copt, *nodes, *mutSplit, *mutAck, *mutStale)
		c.Policies = polNames
		os.Exit(finishCampaign(kind, verdict, c, reg, *jsonOut, *metricsOut, *expectFail))
	}

	if *ftOverhead {
		os.Exit(runFTOverhead(*seed, *ops))
	}

	if *corruptK > 0 || *mutNoParity || *scrubCrash {
		os.Exit(runRepair(reg, opt, polNames, *corruptK, *corruptMode, *scrubCrash, *mutNoParity,
			*shards, *ops, *points, *expectFail, *jsonOut, *metricsOut))
	}

	targets, err := selectTargets(*targetsFlag, *seed)
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	prog := obs.NewReporter(os.Stderr, "potcrash", "case", *progress,
		func() (done, total float64) {
			// cases_planned grows as each target sizes its sweep, so the
			// ETA refines target by target.
			return float64(reg.Counter("crashtest.cases_explored").Value()),
				float64(reg.Counter("crashtest.cases_planned").Value())
		},
		func() string {
			return fmt.Sprintf("%d/%d targets", reg.Counter("crashtest.targets_completed").Value(), len(targets))
		})
	var (
		summaries []crashtest.Summary
		failures  int
	)
	for _, tg := range targets {
		sum, err := crashtest.RunTarget(tg, opt)
		if err != nil {
			fatal(err)
		}
		summaries = append(summaries, sum)
		failures += len(sum.Failures)
		printSummary(sum)
	}
	prog.Stop()
	wall := time.Since(start).Seconds()

	var span uint64
	var pointsTotal, cases int
	for _, s := range summaries {
		span += s.Span
		pointsTotal += s.Points
		cases += s.Cases
	}
	fmt.Printf("campaign: %d targets, %d events spanned, %d points, %d cases, %d failures (%.1fs)\n",
		len(summaries), span, pointsTotal, cases, failures, wall)

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, campaign{Options: opt, Policies: polNames, Summaries: summaries, Wall: wall}); err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		if err := reg.WriteFile(*metricsOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}

	os.Exit(status(failures > 0, *expectFail))
}

// runCampaign runs one whole-world campaign — kind is "cluster" or "mvcc",
// both sized by the same flags, gathered in copt — and
// returns what finishCampaign reports: the -json document (its Error set
// when the campaign failed) and the verdict line.
func runCampaign(kind string, copt crashtest.ConcurrentOptions, nodes int, mutSplit, mutAck, mutStale bool) (c campaign, verdict string) {
	var (
		done, points int
		err          error
	)
	c.Options = copt
	start := time.Now()
	switch kind {
	case "cluster":
		o := crashtest.DefaultClusterOptions()
		o.Seed, o.Workers, o.Shards, o.OpsPerWorker = copt.Seed, copt.Workers, copt.Shards, copt.OpsPerWorker
		o.Points, o.Policies, o.Obs = copt.Points, copt.Policies, copt.Obs
		o.Nodes, o.MutateSplitBrain, o.MutateAckBeforeQuorum = nodes, mutSplit, mutAck
		var sum crashtest.ClusterSummary
		sum, err = crashtest.RunCluster(o)
		c.Options, c.Summaries, done, points = o, []crashtest.ClusterSummary{sum}, sum.Fired+sum.Completed, sum.Points
		verdict = fmt.Sprintf("%d nodes, %d workers, %d points (%d node kills fired, %d drained), %d acked writes, %d events spanned",
			o.Nodes, o.Workers, sum.Points, sum.Fired, sum.Completed, sum.AckedOps, sum.Span)
	default:
		var sum crashtest.MVCCSummary
		sum, err = crashtest.RunMVCC(copt, mutStale)
		c.Summaries, done, points = []crashtest.MVCCSummary{sum}, sum.Fired+sum.Completed, sum.Points
		verdict = fmt.Sprintf("%d workers on %d shards, %d points (%d fired, %d drained), %d acked ops, %d acked batches, %d snapshot reads, %d reclaim sweeps, %d events spanned",
			copt.Workers, copt.Shards, sum.Points, sum.Fired, sum.Completed, sum.AckedOps, sum.AckedBatches, sum.SnapshotReads, sum.Reclaims, sum.Span)
	}
	c.Wall = time.Since(start).Seconds()
	if err != nil {
		c.Error = err.Error()
		return c, fmt.Sprintf("FAIL after %d/%d points: %v", done, points, err)
	}
	return c, fmt.Sprintf("%s (%.1fs)", verdict, c.Wall)
}

// finishCampaign is the end the whole-world campaigns share: print the
// verdict, write -json and -metrics-out, and return the exit status (the
// campaign failed if c carries an error) with -expect-failure folded in.
func finishCampaign(kind, verdict string, c campaign, reg *obs.Registry, jsonOut, metricsOut string, expectFail bool) int {
	fmt.Printf("%s campaign: %s\n", kind, verdict)
	if jsonOut != "" {
		if err := writeJSON(jsonOut, c); err != nil {
			fatal(err)
		}
	}
	if metricsOut != "" {
		if err := reg.WriteFile(metricsOut); err != nil {
			fatal(err)
		}
	}
	return status(c.Error != "", expectFail)
}

// runRepair drives the media-fault repair campaign: inject -corrupt-k
// single-bit faults per round, scrub, and verify byte-exact recovery
// (crashing mid-scrub when -scrub is set). It returns the process exit
// status with -expect-failure folded in.
func runRepair(reg *obs.Registry, opt crashtest.Options, polNames []string, k int, mode string, scrubCrash, noParity bool,
	shards, ops, points int, expectFail bool, jsonOut, metricsOut string) int {
	ropt := crashtest.DefaultRepairOptions()
	ropt.Seed = opt.Seed
	ropt.Shards = shards
	ropt.Obs = reg
	ropt.Policies = opt.Policies
	if k > 0 {
		ropt.K = k
	} else if noParity {
		ropt.K = 6 // the mutation check wants enough faults to hit a stale group
	}
	if ops > 0 {
		ropt.Ops = ops
	}
	m, err := pmem.ParseCorruptMode(mode)
	if err != nil {
		fatal(err)
	}
	ropt.Mode = m
	ropt.NoParity = noParity
	if scrubCrash {
		ropt.CrashMidScrub = true
		if points > 1 {
			ropt.Rounds = points
		}
	}

	start := time.Now()
	sum, err := crashtest.RunRepair(ropt)
	c := campaign{Options: ropt, Policies: polNames, Summaries: []crashtest.RepairSummary{sum}, Wall: time.Since(start).Seconds()}
	verdict := fmt.Sprintf("%d rounds x %d faults (%s), %d repaired + %d parity, %d crashes fired, scrub span %d events (%.1fs)",
		sum.Rounds, ropt.K, mode, sum.Repaired, sum.ParityRepaired, sum.Fired, sum.ScrubSpan, c.Wall)
	if err != nil {
		c.Error = err.Error()
		verdict = fmt.Sprintf("FAIL: %v (summary %+v)", err, sum)
	}
	return finishCampaign("repair", verdict, c, reg, jsonOut, metricsOut, expectFail)
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
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		tg, err := crashtest.TargetByName(name, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, tg)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("potcrash: no targets selected")
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
