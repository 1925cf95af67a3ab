package harness

import (
	"fmt"

	"potgo/internal/stats"
	"potgo/internal/workloads"
)

// Ablations beyond the paper's own sensitivity studies, quantifying two of
// its design assumptions (DESIGN.md §5):
//
//   - the POLB is a fully-associative CAM — how much does associativity
//     matter at the same capacity?
//   - the POT walk costs a fixed 30 cycles — the paper calls this
//     pessimistic since POT entries cache well; the probe-accurate model
//     charges each probed entry as a real memory access.

// ablationAssocGeoms are the POLB geometries compared at a fixed 32-entry
// capacity: the paper's CAM, then 4-way and 1-way (direct-mapped) variants.
var ablationAssocGeoms = []struct {
	name string
	sets int
}{
	{"CAM (full)", 1},
	{"4-way", 8},
	{"direct", 32},
}

// AblationAssoc compares POLB associativities at the paper's 32-entry
// capacity on the EACH pattern (the highest-contention pattern), in-order,
// Pipelined design.
func (s *Suite) AblationAssoc() (Report, error) {
	tb := stats.NewTable("Ablation — POLB associativity at 32 entries (EACH, in-order, Pipelined)",
		"Bench", "CAM speedup", "4-way speedup", "direct speedup", "CAM miss", "4-way miss", "direct miss")
	values := map[string]float64{}
	for _, bench := range MicroBenches {
		baseSpec, pipeSpec, _, _ := fig9Specs(bench, workloads.Each, InOrder)
		base, err := s.Get(baseSpec)
		if err != nil {
			return Report{}, err
		}
		var speeds, misses []string
		for _, g := range ablationAssocGeoms {
			spec := pipeSpec
			spec.POLBSets = g.sets
			r, sp, err := s.speedupOf(base, spec)
			if err != nil {
				return Report{}, err
			}
			speeds = append(speeds, stats.F(sp))
			misses = append(misses, stats.Pct(r.CPU.POLB.MissRate()))
			values[fmt.Sprintf("%s_sets%d_speedup", bench, g.sets)] = sp
			values[fmt.Sprintf("%s_sets%d_miss", bench, g.sets)] = r.CPU.POLB.MissRate()
		}
		tb.AddRow(append(append([]string{bench}, speeds...), misses...)...)
	}
	return Report{
		ID:     "ablation-assoc",
		Title:  "Ablation — POLB associativity",
		Text:   tb.Render(),
		Values: values,
	}, nil
}

// AblationPOT addresses the paper's §8 future-work question — how the POT's
// size interacts with programs that open many pools — by running the EACH
// pattern (one pool per node, hundreds to thousands of pools) against
// shrinking POT capacities with the probe-accurate walk model, so growing
// probe chains in a crowded table show up as real cycles. The paper's
// 16384-entry default keeps occupancy low; a crowded table clusters and
// probes get longer.
// ablationPOTSizes are the AblationPOT capacities. The smallest size still
// holds every pool the EACH pattern creates at paper scale (~5000 for the
// tree workloads), but at >50% occupancy, where linear-probe chains grow.
var ablationPOTSizes = []int{8192, 16384, 65536}

func (s *Suite) AblationPOT() (Report, error) {
	tb := stats.NewTable("Ablation — POT capacity under EACH (probe-accurate walk, in-order, Pipelined)",
		"Bench", "pools", "POT 8192", "POT 16384 (paper)", "POT 65536")
	values := map[string]float64{}
	for _, bench := range MicroBenches {
		baseSpec, pipeSpec, _, _ := fig9Specs(bench, workloads.Each, InOrder)
		base, err := s.Get(baseSpec)
		if err != nil {
			return Report{}, err
		}
		cells := []string{bench, fmt.Sprintf("%d", base.Pools)}
		for _, size := range ablationPOTSizes {
			spec := pipeSpec
			spec.ProbeWalk = true
			spec.POTEntries = size
			_, sp, err := s.speedupOf(base, spec)
			if err != nil {
				return Report{}, err
			}
			cells = append(cells, stats.F(sp))
			values[fmt.Sprintf("%s_pot%d", bench, size)] = sp
		}
		tb.AddRow(cells...)
	}
	return Report{
		ID:     "ablation-pot",
		Title:  "Ablation — POT capacity (paper §8 future work)",
		Text:   tb.Render(),
		Values: values,
	}, nil
}

// AblationWalk compares the paper's fixed 30-cycle POT walk against the
// probe-accurate model (each probed POT entry charged as a cached memory
// access) on the EACH pattern, where POLB misses are frequent.
func (s *Suite) AblationWalk() (Report, error) {
	tb := stats.NewTable("Ablation — POT walk model (EACH, in-order, Pipelined)",
		"Bench", "fixed 30cy", "probe-accurate", "delta")
	values := map[string]float64{}
	for _, bench := range MicroBenches {
		baseSpec, pipeSpec, _, _ := fig9Specs(bench, workloads.Each, InOrder)
		base, err := s.Get(baseSpec)
		if err != nil {
			return Report{}, err
		}
		_, spFixed, err := s.speedupOf(base, pipeSpec)
		if err != nil {
			return Report{}, err
		}
		probeSpec := pipeSpec
		probeSpec.ProbeWalk = true
		_, spProbe, err := s.speedupOf(base, probeSpec)
		if err != nil {
			return Report{}, err
		}
		tb.AddRow(bench, stats.F(spFixed), stats.F(spProbe),
			fmt.Sprintf("%+.1f%%", 100*(spProbe/spFixed-1)))
		values[bench+"_fixed"] = spFixed
		values[bench+"_probe"] = spProbe
	}
	return Report{
		ID:     "ablation-walk",
		Title:  "Ablation — POT walk latency model",
		Text:   tb.Render(),
		Values: values,
	}, nil
}

// FixedCmp compares the paper's OPT hardware against the FIXED baseline of
// its introduction — Mnemosyne-style persistent segments at fixed virtual
// addresses, dereferenced through raw pointers with no translation of any
// kind. FIXED is the performance upper bound, but it forfeits relocation
// and Address Space Layout Randomization for persistent data; the paper's
// argument is that hardware ObjectID translation recovers (nearly) FIXED
// performance while keeping both. Run on the RANDOM pattern, in-order core.
func (s *Suite) FixedCmp() (Report, error) {
	tb := stats.NewTable("OPT vs FIXED (no-translation, no-ASLR) — RANDOM, in-order; speedups over BASE",
		"Bench", "OPT (Pipelined)", "FIXED (raw pointers)", "OPT recovers")
	values := map[string]float64{}
	var ratios []float64
	for _, bench := range MicroBenches {
		baseSpec, pipeSpec, _, _ := fig9Specs(bench, workloads.Random, InOrder)
		base, err := s.Get(baseSpec)
		if err != nil {
			return Report{}, err
		}
		_, spOpt, err := s.speedupOf(base, pipeSpec)
		if err != nil {
			return Report{}, err
		}
		fixedSpec := baseSpec
		fixedSpec.FixedMap = true
		_, spFixed, err := s.speedupOf(base, fixedSpec)
		if err != nil {
			return Report{}, err
		}
		recovered := spOpt / spFixed
		tb.AddRow(bench, stats.F(spOpt), stats.F(spFixed), stats.Pct(recovered))
		values[bench+"_opt"] = spOpt
		values[bench+"_fixed"] = spFixed
		values[bench+"_recovered"] = recovered
		ratios = append(ratios, recovered)
	}
	g := stats.GeoMean(ratios)
	tb.AddRow("GeoMean", "", "", stats.Pct(g))
	values["geomean_recovered"] = g
	return Report{
		ID:     "fixedcmp",
		Title:  "OPT vs FIXED baseline (Mnemosyne-style, no ASLR)",
		Text:   tb.Render(),
		Values: values,
	}, nil
}

// CPIStack renders where cycles go for the BASE and OPT configurations on
// the RANDOM pattern (in-order core) — making visible what the speedup is
// made of: BASE burns its cycles in translation *instructions* (counted
// here under compute, since software translation is ordinary code) and the
// cache/TLB pressure they add, while OPT shifts a small share into explicit
// hardware-translation stalls.
func (s *Suite) CPIStack() (Report, error) {
	tb := stats.NewTable("Cycle breakdown (RANDOM, in-order) — compute/branch/memory/translation %",
		"Bench", "Config", "Cycles", "Compute", "Branch", "Memory", "Translate")
	values := map[string]float64{}
	for _, bench := range MicroBenches {
		baseSpec, pipeSpec, _, _ := fig9Specs(bench, workloads.Random, InOrder)
		for _, cfg := range []struct {
			name string
			spec RunSpec
		}{{"BASE", baseSpec}, {"OPT", pipeSpec}} {
			r, err := s.Get(cfg.spec)
			if err != nil {
				return Report{}, err
			}
			st := r.CPU.CPIStack()
			total := float64(r.CPU.Cycles)
			pct := func(v uint64) string { return stats.Pct(float64(v) / total) }
			tb.AddRow(bench, cfg.name, fmt.Sprintf("%d", r.CPU.Cycles),
				pct(st.Compute), pct(st.Branch), pct(st.Memory), pct(st.Translation))
			values[bench+"_"+cfg.name+"_mem_frac"] = float64(st.Memory) / total
			values[bench+"_"+cfg.name+"_trans_frac"] = float64(st.Translation) / total
		}
	}
	return Report{
		ID:     "cpistack",
		Title:  "Cycle breakdown (CPI stack)",
		Text:   tb.Render(),
		Values: values,
	}, nil
}

// AblationPrefetch asks whether a simple L1 next-line prefetcher changes
// the BASE-vs-OPT picture: software translation's table walks and the
// workloads' node traversals are pointer-chase-heavy, which next-line
// prefetching barely helps, so the paper's conclusions should be robust to
// it. RANDOM pattern, in-order core.
func (s *Suite) AblationPrefetch() (Report, error) {
	tb := stats.NewTable("Ablation — L1 next-line prefetcher (RANDOM, in-order)",
		"Bench", "speedup no-PF", "speedup PF", "BASE gain", "OPT gain")
	values := map[string]float64{}
	for _, bench := range MicroBenches {
		baseSpec, pipeSpec, _, _ := fig9Specs(bench, workloads.Random, InOrder)
		base, err := s.Get(baseSpec)
		if err != nil {
			return Report{}, err
		}
		opt, spNo, err := s.speedupOf(base, pipeSpec)
		if err != nil {
			return Report{}, err
		}
		basePF, pipePF := baseSpec, pipeSpec
		basePF.Prefetch, pipePF.Prefetch = true, true
		bp, err := s.Get(basePF)
		if err != nil {
			return Report{}, err
		}
		op, spPF, err := s.speedupOf(bp, pipePF)
		if err != nil {
			return Report{}, err
		}
		baseGain := float64(base.CPU.Cycles) / float64(bp.CPU.Cycles)
		optGain := float64(opt.CPU.Cycles) / float64(op.CPU.Cycles)
		tb.AddRow(bench, stats.F(spNo), stats.F(spPF),
			fmt.Sprintf("%+.1f%%", 100*(baseGain-1)), fmt.Sprintf("%+.1f%%", 100*(optGain-1)))
		values[bench+"_speedup_nopf"] = spNo
		values[bench+"_speedup_pf"] = spPF
	}
	return Report{
		ID:     "ablation-prefetch",
		Title:  "Ablation — next-line prefetcher",
		Text:   tb.Render(),
		Values: values,
	}, nil
}
