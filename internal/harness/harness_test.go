package harness

import (
	"strings"
	"testing"

	"potgo/internal/polb"
	"potgo/internal/workloads"
)

// quickSuite runs at reduced scale so the whole experiment grid stays fast
// in tests; paper-scale numbers come from cmd/experiments.
func quickSuite() *Suite {
	return NewSuite(Options{
		Seed:    1,
		Ops:     120,
		TPCCOps: 60,
		TPCC:    true,
	})
}

func TestRunSpecLabel(t *testing.T) {
	s := RunSpec{Bench: "LL", Pattern: workloads.Random, Tx: true, Core: InOrder}
	if s.Label() != "LL/RANDOM/BASE/in-order" {
		t.Errorf("label = %q", s.Label())
	}
	s.Opt, s.Design, s.Ideal = true, polb.Parallel, true
	s.Tx = false
	s.Core = OutOfOrder
	if got := s.Label(); !strings.Contains(got, "OPT/Parallel/ideal_NTX") || !strings.Contains(got, "out-of-order") {
		t.Errorf("label = %q", got)
	}
}

func TestUnknownBench(t *testing.T) {
	if _, err := Run(RunSpec{Bench: "NOPE"}); err == nil {
		t.Error("unknown bench must fail")
	}
	if _, err := RunFunctional(RunSpec{Bench: "NOPE"}); err == nil {
		t.Error("unknown bench must fail functionally")
	}
}

func TestOptBeatsBaseOnRandomPattern(t *testing.T) {
	// The paper's headline: on RANDOM, hardware translation wins big.
	for _, core := range []CoreKind{InOrder, OutOfOrder} {
		base, err := Run(RunSpec{Bench: "LL", Pattern: workloads.Random, Tx: true, Core: core, Ops: 100, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Run(RunSpec{Bench: "LL", Pattern: workloads.Random, Tx: true, Core: core, Ops: 100, Seed: 3,
			Opt: true, Design: polb.Pipelined})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := speedup(base, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sp < 1.2 {
			t.Errorf("%v: LL/RANDOM speedup = %.2f, expected substantial", core, sp)
		}
	}
}

func TestInOrderGainsExceedOutOfOrder(t *testing.T) {
	// Paper §6.1: out-of-order hides part of the software-translation
	// cost, so the in-order speedup is larger.
	sp := map[CoreKind]float64{}
	for _, core := range []CoreKind{InOrder, OutOfOrder} {
		base, err := Run(RunSpec{Bench: "BST", Pattern: workloads.Random, Tx: true, Core: core, Ops: 250, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Run(RunSpec{Bench: "BST", Pattern: workloads.Random, Tx: true, Core: core, Ops: 250, Seed: 4,
			Opt: true, Design: polb.Pipelined})
		if err != nil {
			t.Fatal(err)
		}
		if sp[core], err = speedup(base, opt); err != nil {
			t.Fatal(err)
		}
	}
	if sp[InOrder] <= sp[OutOfOrder] {
		t.Errorf("in-order speedup (%.2f) should exceed out-of-order (%.2f)", sp[InOrder], sp[OutOfOrder])
	}
}

func TestIdealBoundsReal(t *testing.T) {
	base, err := Run(RunSpec{Bench: "RBT", Pattern: workloads.Each, Tx: true, Core: InOrder, Ops: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	real, err := Run(RunSpec{Bench: "RBT", Pattern: workloads.Each, Tx: true, Core: InOrder, Ops: 150, Seed: 5,
		Opt: true, Design: polb.Pipelined})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := Run(RunSpec{Bench: "RBT", Pattern: workloads.Each, Tx: true, Core: InOrder, Ops: 150, Seed: 5,
		Opt: true, Design: polb.Pipelined, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	spReal, _ := speedup(base, real)
	spIdeal, _ := speedup(base, ideal)
	if spIdeal < spReal {
		t.Errorf("ideal (%.2f) must bound real (%.2f)", spIdeal, spReal)
	}
}

func TestSuiteMemoizes(t *testing.T) {
	s := quickSuite()
	spec := RunSpec{Bench: "LL", Pattern: workloads.All, Tx: true, Core: InOrder}
	r1, err := s.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CPU.Cycles != r2.CPU.Cycles {
		t.Error("memoized result must be identical")
	}
	if len(s.cache) != 1 {
		t.Errorf("cache size = %d", len(s.cache))
	}
}

func TestTable2Quick(t *testing.T) {
	s := quickSuite()
	rep, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Fast path is exactly 17 instructions, so the ALL column must sit
	// just above 17 (one cold miss amortized over the run).
	gAll := rep.Values["geomean_insns_all"]
	if gAll < 17 || gAll > 25 {
		t.Errorf("ALL insns/call = %.1f, paper says 17.0", gAll)
	}
	// EACH pays the full look-up almost every time (paper: ~97 insns,
	// 87%% predictor miss rate).
	gEach := rep.Values["geomean_insns_each"]
	if gEach < 60 || gEach > 120 {
		t.Errorf("EACH insns/call = %.1f, paper says ~97", gEach)
	}
	if miss := rep.Values["geomean_miss_each"]; miss < 0.5 {
		t.Errorf("EACH predictor miss = %.2f, paper says ~0.87", miss)
	}
	if !strings.Contains(rep.Text, "GeoMean") {
		t.Error("report must include the GeoMean row")
	}
}

func TestFig11ShapeQuick(t *testing.T) {
	// On RANDOM (32 pools), a 32-entry POLB must dominate a 1-entry
	// POLB, and "no POLB" must be the worst configuration.
	s := NewSuite(Options{Seed: 2, Ops: 150, SkipTPCC: true})
	base, err := s.Get(RunSpec{Bench: "BST", Pattern: workloads.Random, Tx: true, Core: InOrder})
	if err != nil {
		t.Fatal(err)
	}
	sp := map[int]float64{}
	for _, size := range []int{-1, 1, 32} {
		r, err := s.Get(RunSpec{Bench: "BST", Pattern: workloads.Random, Tx: true, Core: InOrder,
			Opt: true, Design: polb.Pipelined, POLBSize: size})
		if err != nil {
			t.Fatal(err)
		}
		if sp[size], err = speedup(base, r); err != nil {
			t.Fatal(err)
		}
	}
	if sp[32] <= sp[1] {
		t.Errorf("32-entry POLB (%.2f) must beat 1-entry (%.2f)", sp[32], sp[1])
	}
	if sp[1] <= sp[-1] {
		t.Errorf("1-entry POLB (%.2f) must beat no POLB (%.2f)", sp[1], sp[-1])
	}
}

func TestFig12ShapeQuick(t *testing.T) {
	// Larger POT-walk penalties must not speed anything up; LL (highest
	// POLB miss rate) must degrade from walk=10 to walk=500.
	s := NewSuite(Options{Seed: 3, Ops: 100, SkipTPCC: true})
	base, err := s.Get(RunSpec{Bench: "LL", Pattern: workloads.Each, Tx: true, Core: InOrder})
	if err != nil {
		t.Fatal(err)
	}
	get := func(walk int64) float64 {
		r, err := s.Get(RunSpec{Bench: "LL", Pattern: workloads.Each, Tx: true, Core: InOrder,
			Opt: true, Design: polb.Pipelined, POTWalk: walk})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := speedup(base, r)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	if s10, s500 := get(10), get(500); s500 >= s10 {
		t.Errorf("walk=500 (%.2f) must be slower than walk=10 (%.2f)", s500, s10)
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	s := quickSuite()
	if _, err := s.RunExperiment("bogus"); err == nil {
		t.Error("unknown experiment must fail")
	}
	rep, err := s.RunExperiment("table2")
	if err != nil || rep.ID != "table2" {
		t.Fatalf("dispatch: %v", err)
	}
}

func TestTPCCQuickRun(t *testing.T) {
	base, err := Run(RunSpec{Bench: TPCCBench, Pattern: workloads.All, Tx: true, Core: InOrder,
		Ops: 50, Seed: 6, TPCC: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(RunSpec{Bench: TPCCBench, Pattern: workloads.Each, Tx: true, Core: InOrder,
		Ops: 50, Seed: 6, TPCC: true, Opt: true, Design: polb.Pipelined})
	if err != nil {
		t.Fatal(err)
	}
	if base.CPU.Instructions == 0 || opt.CPU.Instructions == 0 {
		t.Error("TPCC runs must execute instructions")
	}
	if opt.CPU.Instructions >= base.CPU.Instructions {
		t.Error("OPT TPCC must use fewer instructions than BASE")
	}
}

func TestPrefetchPropagatesErrors(t *testing.T) {
	s := quickSuite()
	err := s.Prefetch([]RunSpec{{Bench: "NOPE"}})
	if err == nil {
		t.Error("prefetch must surface run errors")
	}
}
