package workloads

import (
	"fmt"
	"testing"

	"potgo/internal/emit"
	"potgo/internal/pmem"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

// runOnce executes a workload functionally (instructions discarded unless a
// counting sink is wanted) and returns its checksum and instruction count.
func runOnce(t *testing.T, spec Spec, mode emit.Mode, cfg Config, ops int) (uint64, uint64) {
	t.Helper()
	as := vm.NewAddressSpace(cfg.Seed + 1000)
	em := emit.New(trace.Discard{}, mode)
	var soft *emit.SoftTranslator
	if mode == emit.Base {
		var err error
		soft, err = emit.NewSoftTranslator(em, as, 1024)
		if err != nil {
			t.Fatal(err)
		}
	}
	h, err := pmem.NewHeap(as, pmem.NewStore(), em, soft)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kr := spec.DefaultKeyRange
	if kr == 0 {
		kr = 1
	}
	sum, err := spec.Run(env, ops, kr)
	if err != nil {
		t.Fatalf("%s/%s/%v: %v", spec.Abbr, cfg.Pattern, mode, err)
	}
	return sum, em.Count()
}

func TestSpecsTable(t *testing.T) {
	if len(Specs) != 6 {
		t.Fatalf("paper Table 5 has 6 microbenchmarks, got %d", len(Specs))
	}
	for _, s := range Specs {
		if err := validate(s); err != nil {
			t.Error(err)
		}
	}
	if _, ok := ByAbbr("LL"); !ok {
		t.Error("ByAbbr must find LL")
	}
	if _, ok := ByAbbr("XX"); ok {
		t.Error("ByAbbr must miss XX")
	}
	// Paper Table 5 op counts.
	want := map[string]int{"LL": 700, "BST": 5000, "SPS": 10000, "RBT": 3000, "BT": 5000, "B+T": 5000}
	for abbr, ops := range want {
		s, _ := ByAbbr(abbr)
		if s.DefaultOps != ops {
			t.Errorf("%s default ops = %d, want %d", abbr, s.DefaultOps, ops)
		}
	}
}

// validate sanity-checks a spec table entry.
func validate(s Spec) error {
	if s.Name == "" || s.Abbr == "" || s.Run == nil {
		return fmt.Errorf("workloads: malformed spec %+v", s)
	}
	if s.DefaultOps <= 0 {
		return fmt.Errorf("workloads: %s has no default op count", s.Abbr)
	}
	return nil
}

// TestValidateRejectsBadSpecs keeps TestSpecsTable's check from passing
// vacuously.
func TestValidateRejectsBadSpecs(t *testing.T) {
	if err := validate(Spec{}); err == nil {
		t.Error("empty spec must fail")
	}
	if err := validate(Spec{Name: "x", Abbr: "x", Run: RunLL}); err == nil {
		t.Error("spec without ops must fail")
	}
}

func TestPatternString(t *testing.T) {
	if All.String() != "ALL" || Each.String() != "EACH" || Random.String() != "RANDOM" {
		t.Error("pattern names")
	}
	if Pattern(9).String() == "" {
		t.Error("unknown pattern must render")
	}
}

// Every workload must run to completion under every pattern (small op
// counts; OPT mode for speed; failure-safety on).
func TestAllWorkloadsAllPatterns(t *testing.T) {
	ops := map[string]int{"LL": 60, "BST": 150, "SPS": 40, "RBT": 150, "BT": 150, "B+T": 150}
	for _, spec := range Specs {
		for _, pat := range []Pattern{All, Each, Random} {
			if spec.Abbr == "SPS" && pat == Each {
				// EACH puts each of the 1024 strings in its own
				// pool; covered by the smaller dedicated test
				// below.
				continue
			}
			cfg := Config{Pattern: pat, Tx: true, Seed: 42}
			sum, insns := runOnce(t, spec, emit.Opt, cfg, ops[spec.Abbr])
			if insns == 0 {
				t.Errorf("%s/%v emitted nothing", spec.Abbr, pat)
			}
			_ = sum
		}
	}
}

func TestSPSEachPattern(t *testing.T) {
	spec, _ := ByAbbr("SPS")
	cfg := Config{Pattern: Each, Tx: true, Seed: 1}
	sum, _ := runOnce(t, spec, emit.Opt, cfg, 10)
	_ = sum
}

// BASE and OPT runs of the same seed must produce identical functional
// results (the same structure contents), differing only in instructions.
func TestBaseOptFunctionalEquivalence(t *testing.T) {
	ops := map[string]int{"LL": 50, "BST": 120, "SPS": 30, "RBT": 120, "BT": 120, "B+T": 120}
	for _, spec := range Specs {
		cfg := Config{Pattern: Random, Tx: true, Seed: 7}
		sumB, insnsB := runOnce(t, spec, emit.Base, cfg, ops[spec.Abbr])
		sumO, insnsO := runOnce(t, spec, emit.Opt, cfg, ops[spec.Abbr])
		if sumB != sumO {
			t.Errorf("%s: BASE checksum %#x != OPT %#x", spec.Abbr, sumB, sumO)
		}
		if insnsO >= insnsB {
			t.Errorf("%s: OPT (%d insns) must be shorter than BASE (%d)", spec.Abbr, insnsO, insnsB)
		}
	}
}

// The instruction-count reduction from hardware translation (paper: 43.9%
// average) must be substantial on translation-heavy patterns.
func TestInstructionReductionIsSubstantial(t *testing.T) {
	spec, _ := ByAbbr("LL")
	cfg := Config{Pattern: Random, Tx: true, Seed: 9}
	_, insnsB := runOnce(t, spec, emit.Base, cfg, 80)
	_, insnsO := runOnce(t, spec, emit.Opt, cfg, 80)
	reduction := 1 - float64(insnsO)/float64(insnsB)
	if reduction < 0.25 {
		t.Errorf("LL/RANDOM instruction reduction = %.1f%%, expected substantial", 100*reduction)
	}
}

// TX and NTX runs must produce the same functional state; TX must emit
// more instructions (logging, CLWBs, fences).
func TestTxVsNtx(t *testing.T) {
	spec, _ := ByAbbr("BST")
	base := Config{Pattern: All, Seed: 5}
	txCfg, ntxCfg := base, base
	txCfg.Tx = true
	sumTx, insnsTx := runOnce(t, spec, emit.Opt, txCfg, 100)
	sumNtx, insnsNtx := runOnce(t, spec, emit.Opt, ntxCfg, 100)
	if sumTx != sumNtx {
		t.Errorf("TX checksum %#x != NTX %#x", sumTx, sumNtx)
	}
	if insnsTx <= insnsNtx {
		t.Errorf("TX (%d) must cost more instructions than NTX (%d)", insnsTx, insnsNtx)
	}
}

// Patterns affect placement, not results.
func TestPatternsFunctionallyEquivalent(t *testing.T) {
	spec, _ := ByAbbr("B+T")
	var sums []uint64
	for _, pat := range []Pattern{All, Each, Random} {
		cfg := Config{Pattern: pat, Tx: true, Seed: 11}
		sum, _ := runOnce(t, spec, emit.Opt, cfg, 100)
		sums = append(sums, sum)
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Errorf("checksums diverge across patterns: %v", sums)
	}
}

// EACH really creates one pool per structure.
func TestEachCreatesPools(t *testing.T) {
	as := vm.NewAddressSpace(3)
	em := emit.New(trace.Discard{}, emit.Opt)
	h, err := pmem.NewHeap(as, pmem.NewStore(), em, nil)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(h, Config{Pattern: Each, Tx: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := ByAbbr("LL")
	if _, err := spec.Run(env, 40, spec.DefaultKeyRange); err != nil {
		t.Fatal(err)
	}
	if env.PoolsCreated() < 20 {
		t.Errorf("EACH created only %d pools for 40 ops", env.PoolsCreated())
	}
}

// RANDOM uses exactly 32 + 1 pools.
func TestRandomPoolCount(t *testing.T) {
	as := vm.NewAddressSpace(4)
	em := emit.New(trace.Discard{}, emit.Opt)
	h, _ := pmem.NewHeap(as, pmem.NewStore(), em, nil)
	env, err := NewEnv(h, Config{Pattern: Random, Tx: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := ByAbbr("BST")
	if _, err := spec.Run(env, 100, spec.DefaultKeyRange); err != nil {
		t.Fatal(err)
	}
	if env.PoolsCreated() != RandomPools {
		t.Errorf("RANDOM pools = %d, want %d (master is pool 0 of the 32)", env.PoolsCreated(), RandomPools)
	}
}

// The same seed reproduces the same run bit-for-bit (determinism).
func TestDeterminism(t *testing.T) {
	spec, _ := ByAbbr("RBT")
	cfg := Config{Pattern: Random, Tx: true, Seed: 77}
	s1, n1 := runOnce(t, spec, emit.Opt, cfg, 120)
	s2, n2 := runOnce(t, spec, emit.Opt, cfg, 120)
	if s1 != s2 || n1 != n2 {
		t.Errorf("non-deterministic: (%#x,%d) vs (%#x,%d)", s1, n1, s2, n2)
	}
}
