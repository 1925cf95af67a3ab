package harness

import (
	"fmt"
	"strings"

	"potgo/internal/polb"
	"potgo/internal/stats"
	"potgo/internal/workloads"
)

// Report is one reproduced table or figure.
type Report struct {
	// ID names the experiment ("table2", "fig9a", ...).
	ID string
	// Title is the paper reference.
	Title string
	// Text is the rendered table / ASCII chart.
	Text string
	// Values holds headline numbers keyed by short names, for tests and
	// the paper-vs-measured summary in EXPERIMENTS.md.
	Values map[string]float64
}

var patterns = []workloads.Pattern{workloads.All, workloads.Each, workloads.Random}

// Table2 reproduces paper Table 2: average dynamic instructions spent in
// oid_direct under the ALL and EACH patterns, and the last-value predictor
// miss rate under EACH. The statistics come from the emitted stream, which
// no timing model changes, so it reads Figure 9(a)'s in-order BASE runs.
func (s *Suite) Table2() (Report, error) {
	tb := stats.NewTable("Table 2: instructions executed in oid_direct (BASE)",
		"Bench", "Insns on ALL", "Insns on EACH", "Miss on recent (EACH)")
	var allCols, eachCols, missCols []float64
	for _, bench := range MicroBenches {
		allSpec, _, _, _ := fig9Specs(bench, workloads.All, InOrder)
		eachSpec, _, _, _ := fig9Specs(bench, workloads.Each, InOrder)
		all, err := s.Get(allSpec)
		if err != nil {
			return Report{}, err
		}
		each, err := s.Get(eachSpec)
		if err != nil {
			return Report{}, err
		}
		tb.AddRow(bench,
			fmt.Sprintf("%.1f", all.Soft.InsnsPerCall()),
			fmt.Sprintf("%.1f", each.Soft.InsnsPerCall()),
			stats.Pct(each.Soft.PredictorMissRate()))
		allCols = append(allCols, all.Soft.InsnsPerCall())
		eachCols = append(eachCols, each.Soft.InsnsPerCall())
		missCols = append(missCols, each.Soft.PredictorMissRate())
	}
	gAll, gEach, gMiss := stats.GeoMean(allCols), stats.GeoMean(eachCols), stats.GeoMean(missCols)
	tb.AddRow("GeoMean", fmt.Sprintf("%.1f", gAll), fmt.Sprintf("%.1f", gEach), stats.Pct(gMiss))
	return Report{
		ID:    "table2",
		Title: "Table 2 — software translation cost",
		Text:  tb.Render(),
		Values: map[string]float64{
			"geomean_insns_all":  gAll,
			"geomean_insns_each": gEach,
			"geomean_miss_each":  gMiss,
		},
	}, nil
}

// fig9Specs builds the (BASE, Pipelined, Parallel, Ideal) quadruple for one
// benchmark/pattern on one core.
func fig9Specs(bench string, pat workloads.Pattern, kind CoreKind) (base, pipe, par, ideal RunSpec) {
	base = RunSpec{Bench: bench, Pattern: pat, Tx: true, Core: kind}
	pipe = base
	pipe.Opt, pipe.Design = true, polb.Pipelined
	par = base
	par.Opt, par.Design = true, polb.Parallel
	ideal = pipe
	ideal.Ideal = true
	return
}

// Fig9a reproduces paper Figure 9(a): speedup of OPT over BASE on the
// in-order core for every benchmark and pattern, on both POLB designs, with
// the ideal (zero-cost translation) bound, plus the TPC-C rows.
func (s *Suite) Fig9a() (Report, error) {
	return s.fig9(InOrder, "fig9a", "Figure 9(a) — OPT/BASE speedup, in-order", true)
}

// Fig9b reproduces paper Figure 9(b): the same on the out-of-order core
// (Pipelined only — the paper's §4.3 explains Parallel is not built for
// out-of-order cores).
func (s *Suite) Fig9b() (Report, error) {
	return s.fig9(OutOfOrder, "fig9b", "Figure 9(b) — OPT/BASE speedup, out-of-order", false)
}

func (s *Suite) fig9(kind CoreKind, id, title string, withParallel bool) (Report, error) {
	header := []string{"Bench", "Pattern", "Pipelined", "Ideal"}
	if withParallel {
		header = []string{"Bench", "Pattern", "Pipelined", "Parallel", "Ideal"}
	}
	tb := stats.NewTable(title+"  (bars: speedup, scale 0..3x)", header...)
	values := map[string]float64{}
	perPattern := map[workloads.Pattern][]float64{}
	perPatternPar := map[workloads.Pattern][]float64{}

	addRows := func(bench string, pats []workloads.Pattern) error {
		for _, pat := range pats {
			baseSpec, pipeSpec, parSpec, idealSpec := fig9Specs(bench, pat, kind)
			base, err := s.Get(baseSpec)
			if err != nil {
				return err
			}
			_, spPipe, err := s.speedupOf(base, pipeSpec)
			if err != nil {
				return err
			}
			_, spIdeal, err := s.speedupOf(base, idealSpec)
			if err != nil {
				return err
			}
			row := []string{bench, pat.String(), stats.Bar(spPipe, 3, 18)}
			if withParallel {
				_, spPar, err := s.speedupOf(base, parSpec)
				if err != nil {
					return err
				}
				row = append(row, stats.Bar(spPar, 3, 18))
				values[fmt.Sprintf("%s_%s_parallel", bench, pat)] = spPar
				if bench != TPCCBench {
					perPatternPar[pat] = append(perPatternPar[pat], spPar)
				}
			}
			row = append(row, stats.F(spIdeal))
			tb.AddRow(row...)
			values[fmt.Sprintf("%s_%s_pipelined", bench, pat)] = spPipe
			if bench != TPCCBench {
				perPattern[pat] = append(perPattern[pat], spPipe)
			}
		}
		return nil
	}

	for _, bench := range MicroBenches {
		if err := addRows(bench, patterns); err != nil {
			return Report{}, err
		}
	}
	for _, pat := range patterns {
		g := stats.GeoMean(perPattern[pat])
		row := []string{"GeoMean", pat.String(), stats.F(g)}
		values["geomean_"+strings.ToLower(pat.String())+"_pipelined"] = g
		if withParallel {
			gp := stats.GeoMean(perPatternPar[pat])
			row = append(row, stats.F(gp))
			values["geomean_"+strings.ToLower(pat.String())+"_parallel"] = gp
		}
		tb.AddRow(row...)
	}
	if !s.opts.SkipTPCC {
		if err := addRows(TPCCBench, []workloads.Pattern{workloads.All, workloads.Each}); err != nil {
			return Report{}, err
		}
	}
	return Report{ID: id, Title: title, Text: tb.Render(), Values: values}, nil
}

// Table8 reproduces paper Table 8: POLB miss rates of the OPT benchmarks —
// the Parallel design across all three patterns and the Pipelined design on
// EACH (ALL and RANDOM only miss during warm-up under Pipelined).
func (s *Suite) Table8() (Report, error) {
	tb := stats.NewTable("Table 8: POLB miss rate (OPT, in-order)",
		"Bench", "Parallel ALL", "Parallel EACH", "Parallel RANDOM", "Pipelined EACH")
	values := map[string]float64{}
	row := func(bench string, pats []workloads.Pattern) error {
		cells := []string{bench}
		for _, pat := range pats {
			_, _, parSpec, _ := fig9Specs(bench, pat, InOrder)
			par, err := s.Get(parSpec)
			if err != nil {
				return err
			}
			cells = append(cells, stats.Pct(par.CPU.POLB.MissRate()))
			values[fmt.Sprintf("%s_%s_parallel_miss", bench, pat)] = par.CPU.POLB.MissRate()
		}
		for len(cells) < 4 {
			cells = append(cells, "-")
		}
		_, pipeSpec, _, _ := fig9Specs(bench, workloads.Each, InOrder)
		pipe, err := s.Get(pipeSpec)
		if err != nil {
			return err
		}
		cells = append(cells, stats.Pct(pipe.CPU.POLB.MissRate()))
		values[bench+"_each_pipelined_miss"] = pipe.CPU.POLB.MissRate()
		tb.AddRow(cells...)
		return nil
	}
	for _, bench := range MicroBenches {
		if err := row(bench, patterns); err != nil {
			return Report{}, err
		}
	}
	if !s.opts.SkipTPCC {
		if err := row(TPCCBench, []workloads.Pattern{workloads.All, workloads.Each}); err != nil {
			return Report{}, err
		}
	}
	return Report{ID: "table8", Title: "Table 8 — POLB miss rates (OPT)", Text: tb.Render(), Values: values}, nil
}

// Fig10 reproduces paper Figure 10: OPT_NTX speedup over BASE_NTX (no
// failure-safety or durability support) on the in-order core, both designs.
func (s *Suite) Fig10() (Report, error) {
	tb := stats.NewTable("Figure 10 — OPT_NTX/BASE_NTX speedup, in-order (bars: scale 0..3x)",
		"Bench", "Pattern", "Pipelined", "Parallel")
	values := map[string]float64{}
	perPattern := map[workloads.Pattern][]float64{}
	for _, bench := range MicroBenches {
		for _, pat := range patterns {
			baseSpec, pipeSpec, parSpec, _ := fig9Specs(bench, pat, InOrder)
			baseSpec.Tx, pipeSpec.Tx, parSpec.Tx = false, false, false
			base, err := s.Get(baseSpec)
			if err != nil {
				return Report{}, err
			}
			_, spPipe, err := s.speedupOf(base, pipeSpec)
			if err != nil {
				return Report{}, err
			}
			_, spPar, err := s.speedupOf(base, parSpec)
			if err != nil {
				return Report{}, err
			}
			tb.AddRow(bench, pat.String(), stats.Bar(spPipe, 3, 18), stats.Bar(spPar, 3, 18))
			values[fmt.Sprintf("%s_%s_pipelined_ntx", bench, pat)] = spPipe
			values[fmt.Sprintf("%s_%s_parallel_ntx", bench, pat)] = spPar
			perPattern[pat] = append(perPattern[pat], spPipe)
		}
	}
	for _, pat := range patterns {
		values["geomean_"+strings.ToLower(pat.String())+"_pipelined_ntx"] = stats.GeoMean(perPattern[pat])
	}
	return Report{ID: "fig10", Title: "Figure 10 — no-TX speedups", Text: tb.Render(), Values: values}, nil
}

// polbSweepSizes are the Figure 11 POLB sizes; -1 encodes "no POLB".
var polbSweepSizes = []int{-1, 1, 4, 32, 128}

// Fig11 reproduces paper Figure 11: sensitivity of the OPT/BASE speedup to
// POLB size on the RANDOM pattern (32 pools by construction), in-order,
// both designs.
func (s *Suite) Fig11() (Report, error) {
	tb := stats.NewTable("Figure 11 — speedup vs POLB size (RANDOM, in-order)",
		"Bench", "Design", "no POLB", "1", "4", "32", "128")
	values := map[string]float64{}
	for _, bench := range MicroBenches {
		baseSpec, pipeSpec, parSpec, _ := fig9Specs(bench, workloads.Random, InOrder)
		base, err := s.Get(baseSpec)
		if err != nil {
			return Report{}, err
		}
		for _, d := range []struct {
			name string
			spec RunSpec
		}{{"Pipelined", pipeSpec}, {"Parallel", parSpec}} {
			cells := []string{bench, d.name}
			for _, size := range polbSweepSizes {
				spec := d.spec
				spec.POLBSize = size
				_, sp, err := s.speedupOf(base, spec)
				if err != nil {
					return Report{}, err
				}
				cells = append(cells, stats.F(sp))
				values[fmt.Sprintf("%s_%s_size%d", bench, d.name, size)] = sp
			}
			tb.AddRow(cells...)
		}
	}
	return Report{ID: "fig11", Title: "Figure 11 — POLB size sensitivity", Text: tb.Render(), Values: values}, nil
}

// Table9 reproduces paper Table 9: POLB miss rates on OPT_NTX with the
// RANDOM pattern while sweeping the POLB size, for both designs.
// table9Sizes are the Table 9 POLB capacities.
var table9Sizes = []int{1, 4, 32, 128}

func (s *Suite) Table9() (Report, error) {
	tb := stats.NewTable("Table 9: POLB miss rate, OPT_NTX RANDOM",
		"Bench", "Pipe 1", "Pipe 4", "Pipe 32", "Pipe 128", "Par 1", "Par 4", "Par 32", "Par 128")
	values := map[string]float64{}
	for _, bench := range MicroBenches {
		cells := []string{bench}
		for _, design := range []polb.Design{polb.Pipelined, polb.Parallel} {
			for _, size := range table9Sizes {
				spec := RunSpec{
					Bench: bench, Pattern: workloads.Random, Tx: false,
					Core: InOrder, Opt: true, Design: design, POLBSize: size,
				}
				r, err := s.Get(spec)
				if err != nil {
					return Report{}, err
				}
				cells = append(cells, stats.Pct(r.CPU.POLB.MissRate()))
				values[fmt.Sprintf("%s_%s_%d_miss", bench, design, size)] = r.CPU.POLB.MissRate()
			}
		}
		tb.AddRow(cells...)
	}
	return Report{ID: "table9", Title: "Table 9 — POLB size vs miss rate (NTX)", Text: tb.Render(), Values: values}, nil
}

// potSweep are the Figure 12 POT-walk latencies in cycles (0 = free walk).
var potSweep = []int64{0, 10, 30, 100, 300, 500}

// Fig12 reproduces paper Figure 12: sensitivity of the OPT/BASE speedup to
// the POT-walk penalty on the EACH pattern (highest POLB miss rates),
// in-order Pipelined design.
func (s *Suite) Fig12() (Report, error) {
	tb := stats.NewTable("Figure 12 — speedup vs POT-walk penalty (EACH, in-order, Pipelined)",
		"Bench", "ideal(0)", "10", "30", "100", "300", "500")
	values := map[string]float64{}
	for _, bench := range MicroBenches {
		baseSpec, pipeSpec, _, _ := fig9Specs(bench, workloads.Each, InOrder)
		base, err := s.Get(baseSpec)
		if err != nil {
			return Report{}, err
		}
		cells := []string{bench}
		for _, walk := range potSweep {
			spec := pipeSpec
			if walk == 0 {
				spec.POTWalk = -1 // core.ZeroWalk: free walk
			} else {
				spec.POTWalk = walk
			}
			_, sp, err := s.speedupOf(base, spec)
			if err != nil {
				return Report{}, err
			}
			cells = append(cells, stats.F(sp))
			values[fmt.Sprintf("%s_walk%d", bench, walk)] = sp
		}
		tb.AddRow(cells...)
	}
	return Report{ID: "fig12", Title: "Figure 12 — POT-walk sensitivity", Text: tb.Render(), Values: values}, nil
}

// InsnReduction reproduces the paper's dynamic-instruction-count claim
// (§1: hardware translation reduces dynamic instructions by 43.9% on
// average versus software translation).
func (s *Suite) InsnReduction() (Report, error) {
	tb := stats.NewTable("Dynamic instruction reduction, OPT vs BASE",
		"Bench", "ALL", "EACH", "RANDOM")
	var all []float64
	values := map[string]float64{}
	for _, bench := range MicroBenches {
		cells := []string{bench}
		for _, pat := range patterns {
			baseSpec, pipeSpec, _, _ := fig9Specs(bench, pat, InOrder)
			base, err := s.Get(baseSpec)
			if err != nil {
				return Report{}, err
			}
			opt, err := s.Get(pipeSpec)
			if err != nil {
				return Report{}, err
			}
			red := 1 - float64(opt.CPU.Instructions)/float64(base.CPU.Instructions)
			cells = append(cells, stats.Pct(red))
			all = append(all, red)
			values[fmt.Sprintf("%s_%s_reduction", bench, pat)] = red
		}
		tb.AddRow(cells...)
	}
	mean := stats.Mean(all)
	tb.AddRow("Mean", "", stats.Pct(mean), "")
	values["mean_reduction"] = mean
	return Report{ID: "insns", Title: "Dynamic instruction reduction", Text: tb.Render(), Values: values}, nil
}

// experiments registers every reproducible experiment in paper order, then
// the ablations of DESIGN.md §5 and the recovery extension. A row and its
// body are the whole registration: PrefetchExperiments records the body's
// specs.
var experiments = []struct {
	id  string
	run func(*Suite) (Report, error)
}{
	{"table2", (*Suite).Table2},
	{"fig9a", (*Suite).Fig9a},
	{"fig9b", (*Suite).Fig9b},
	{"table8", (*Suite).Table8},
	{"fig10", (*Suite).Fig10},
	{"fig11", (*Suite).Fig11},
	{"table9", (*Suite).Table9},
	{"fig12", (*Suite).Fig12},
	{"insns", (*Suite).InsnReduction},
	{"ablation-assoc", (*Suite).AblationAssoc},
	{"ablation-walk", (*Suite).AblationWalk},
	{"ablation-pot", (*Suite).AblationPOT},
	{"fixedcmp", (*Suite).FixedCmp},
	{"cpistack", (*Suite).CPIStack},
	{"ablation-prefetch", (*Suite).AblationPrefetch},
	{"recovery", (*Suite).Recovery},
}

// ExperimentIDs lists the registered experiment ids in order.
var ExperimentIDs = func() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}()

// RunExperiment renders the experiment registered under id.
func (s *Suite) RunExperiment(id string) (Report, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(s)
		}
	}
	return Report{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ExperimentIDs)
}
