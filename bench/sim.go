package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"potgo/internal/harness"
	"potgo/internal/polb"
	"potgo/internal/stats"
	"potgo/internal/workloads"
)

// simPaperSeconds is the run length at which the grid runs the paper's own
// operation counts (Table 5) on this box's two cores; a shorter run scales
// every benchmark's count down in proportion, a longer one never exceeds
// the paper's.
const simPaperSeconds = 36

// simWorkers is the number of simulations in flight, one per core.
const simWorkers = 2

// paperHeadlines are the five numbers of the paper's evaluation the grid
// reproduces (Figure 9a/9b geomeans on RANDOM, Table 8 miss rates). The
// model is validated against these and nothing else.
var paperHeadlines = []struct {
	name  string
	paper float64
}{
	{"harness.headline.inorder_random_pipelined", 1.96},
	{"harness.headline.inorder_random_parallel", 1.92},
	{"harness.headline.ooo_random_pipelined", 1.58},
	{"harness.headline.ll_each_parallel_miss", 0.325},
	{"harness.headline.bt_each_parallel_miss", 0.025},
}

// simConfigs are the five machine configurations each benchmark and pattern
// runs on; the first of each core is that core's BASE.
var simConfigs = []struct {
	core   harness.CoreKind
	opt    bool
	design polb.Design
}{
	{harness.InOrder, false, 0},
	{harness.InOrder, true, polb.Pipelined},
	{harness.InOrder, true, polb.Parallel},
	{harness.OutOfOrder, false, 0},
	{harness.OutOfOrder, true, polb.Pipelined},
}

var simPatterns = []workloads.Pattern{workloads.Each, workloads.Random}

func simScale(seconds int, quick bool) float64 {
	if quick {
		return 0.01
	}
	return math.Min(1, float64(seconds)/simPaperSeconds)
}

// headlineBenches are the two microbenchmarks whose miss rates are headline
// numbers: all a -quick smoke and the warm-up simulate.
var headlineBenches = []string{"LL", "BT"}

// simBenches are the grid's microbenchmarks: the paper's six, or for a -quick
// smoke the headline two.
func simBenches(quick bool) []string {
	if quick {
		return headlineBenches
	}
	return harness.MicroBenches
}

// simSpecs lists the grid: the microbenchmarks x {EACH, RANDOM} x the five
// configurations, with every operation count scaled.
func simSpecs(benches []string, scale float64) []harness.RunSpec {
	var specs []harness.RunSpec
	for _, b := range benches {
		w, _ := workloads.ByAbbr(b)
		ops := max(20, int(float64(w.DefaultOps)*scale))
		for _, pat := range simPatterns {
			for _, c := range simConfigs {
				specs = append(specs, harness.RunSpec{
					Bench: b, Pattern: pat, Tx: true, Core: c.core,
					Opt: c.opt, Design: c.design, Ops: ops,
				})
			}
		}
	}
	return specs
}

// runGrid simulates every spec on simWorkers workers, exactly as
// Suite.Prefetch does, but timing each simulation so its latency can be
// reported. Results land in the suite's cache.
func runGrid(s *harness.Suite, specs []harness.RunSpec, each func(i int, start, end time.Time)) error {
	work := make(chan int)
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				start := time.Now()
				_, errs[i] = s.Get(specs[i])
				each(i, start, time.Now())
			}
		}()
	}
	for i := range specs {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// simSetUp builds the suite and warms the process: a short simulation of two
// of the benchmarks on each core model grows the Go heap and faults its pages
// in, so the timed grid does not pay for that.
func simSetUp(seed uint64, scale float64) (*harness.Suite, error) {
	warm := harness.NewSuite(harness.Options{Seed: int64(seed) + 1, SkipTPCC: true, Parallel: simWorkers})
	var specs []harness.RunSpec
	for _, sp := range simSpecs(headlineBenches, scale/4) {
		if sp.Pattern == workloads.Random && sp.Opt == (sp.Core == harness.OutOfOrder) && sp.Design != polb.Parallel {
			specs = append(specs, sp)
		}
	}
	if err := warm.Prefetch(specs); err != nil {
		return nil, err
	}
	return harness.NewSuite(harness.Options{Seed: int64(seed), SkipTPCC: true, Parallel: simWorkers}), nil
}

// runSim is the untraced run of sim_grid.
func runSim(seed uint64, seconds int, quick bool, res *result) error {
	scale := simScale(seconds, quick)
	m := res.Metrics
	res.Params["sim_op_scale"] = scale

	t0 := time.Now()
	suite, err := simSetUp(seed, scale)
	if err != nil {
		return err
	}
	m["setup_s"] = time.Since(t0).Seconds()

	benches := simBenches(quick)
	specs := simSpecs(benches, scale)
	latUs := make([]float64, len(specs))
	start := time.Now()
	err = runGrid(suite, specs, func(i int, s, e time.Time) {
		latUs[i] = float64(e.Sub(s).Nanoseconds()) / 1e3
	})
	wall := time.Since(start)
	if err != nil {
		return err
	}
	insns := float64(suite.SimulatedInstructions())
	m["ops_per_s"] = insns / wall.Seconds()
	m["sim_mips"] = insns / wall.Seconds() / 1e6
	lat := summarise(latUs)
	m["lat_p50_us"], m["lat_p95_us"], m["lat_p99_us"] = lat.P50, lat.P95, lat.P99
	res.Params["lat_tail_percentile"] = lat.Supported
	res.Params["lat_samples"] = float64(lat.N)
	res.Params["sim_runs"] = float64(len(specs))
	res.Params["sim_wall_s"] = wall.Seconds()
	return simStatistics(suite, specs, benches, res)
}

// simStatistics reads the simulated statistics out of the cached results:
// all deterministic for a given seed and scale.
func simStatistics(suite *harness.Suite, specs []harness.RunSpec, benches []string, res *result) error {
	m := res.Metrics
	type sums struct{ cycles, insns float64 }
	var all, inorder, ooo sums
	var transStall, memStall, optCycles, walks float64
	var l1dMiss, l1dAcc float64
	polbMiss, polbAcc := map[string]float64{}, map[string]float64{}
	results := map[string]harness.RunResult{}
	for _, sp := range specs {
		r, err := suite.Get(sp)
		if err != nil {
			return err
		}
		results[r.Spec.Label()] = r
		c, n := float64(r.CPU.Cycles), float64(r.CPU.Instructions)
		all.cycles, all.insns = all.cycles+c, all.insns+n
		if sp.Core == harness.InOrder {
			inorder.cycles, inorder.insns = inorder.cycles+c, inorder.insns+n
		} else {
			ooo.cycles, ooo.insns = ooo.cycles+c, ooo.insns+n
		}
		memStall += float64(r.CPU.MemStallCycles)
		l1dMiss += float64(r.CPU.Mem.L1D.Misses)
		l1dAcc += float64(r.CPU.Mem.L1D.Accesses())
		if sp.Opt {
			optCycles += c
			transStall += float64(r.CPU.TransStallCycles)
			walks += float64(r.CPU.Translation.POTWalks)
			polbMiss[sp.Pattern.String()] += float64(r.CPU.POLB.Misses)
			polbAcc[sp.Pattern.String()] += float64(r.CPU.POLB.Accesses())
		}
	}
	m["cpu.cycles_total"], m["cpu.insns_total"] = all.cycles, all.insns
	m["cpu.ipc_inorder"] = per(inorder.insns, inorder.cycles)
	m["cpu.ipc_ooo"] = per(ooo.insns, ooo.cycles)
	m["core.trans_stall_share"] = per(transStall, optCycles)
	m["polb.miss_rate_each"] = per(polbMiss[workloads.Each.String()], polbAcc[workloads.Each.String()])
	m["polb.miss_rate_random"] = per(polbMiss[workloads.Random.String()], polbAcc[workloads.Random.String()])
	m["pot.walks_total"] = walks
	m["mem.l1d_miss_rate"] = per(l1dMiss, l1dAcc)
	m["mem.stall_share"] = per(memStall, all.cycles)

	// Speedups, with the functional check that makes them meaningful: an
	// OPT run must compute what its BASE computed.
	label := func(b string, pat workloads.Pattern, ci int) string {
		c := simConfigs[ci]
		return harness.RunSpec{Bench: b, Pattern: pat, Tx: true, Core: c.core, Opt: c.opt, Design: c.design}.Label()
	}
	speedups := map[int][]float64{}
	for _, b := range benches {
		for _, pat := range simPatterns {
			for ci, c := range simConfigs {
				if !c.opt {
					continue
				}
				baseIdx := 0
				if c.core == harness.OutOfOrder {
					baseIdx = 3
				}
				base, opt := results[label(b, pat, baseIdx)], results[label(b, pat, ci)]
				res.Attempted++
				if base.Checksum != opt.Checksum {
					res.fail(1, fmt.Sprintf("%s computed %#x, its BASE %#x", opt.Spec.Label(), opt.Checksum, base.Checksum))
				}
				if pat == workloads.Random {
					speedups[ci] = append(speedups[ci], per(float64(base.CPU.Cycles), float64(opt.CPU.Cycles)))
				}
			}
		}
	}
	measured := []float64{
		stats.GeoMean(speedups[1]),
		stats.GeoMean(speedups[2]),
		stats.GeoMean(speedups[4]),
		results[label("LL", workloads.Each, 2)].CPU.POLB.MissRate(),
		results[label("BT", workloads.Each, 2)].CPU.POLB.MissRate(),
	}
	var errSum float64
	for i, h := range paperHeadlines {
		m[h.name] = measured[i]
		errSum += math.Abs(measured[i]-h.paper) / h.paper
	}
	m["paper_err_pct"] = 100 * errSum / float64(len(paperHeadlines))
	return nil
}
