package emit

import (
	"testing"

	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

func TestModeString(t *testing.T) {
	if Base.String() != "BASE" || Opt.String() != "OPT" {
		t.Error("mode names")
	}
}

func TestTempRotation(t *testing.T) {
	e := New(trace.Discard{}, Opt)
	seen := map[isa.Reg]bool{}
	for i := 0; i < 48; i++ {
		r := e.Temp()
		if r < 16 {
			t.Fatalf("temp %d in reserved range", r)
		}
		if seen[r] {
			t.Fatalf("temp %d reused within one rotation", r)
		}
		seen[r] = true
	}
	// The 49th must wrap.
	if r := e.Temp(); !seen[r] {
		t.Error("temps must rotate")
	}
}

func TestEmitPrimitives(t *testing.T) {
	var buf trace.Buffer
	e := New(&buf, Opt)
	e.Nop()
	e.ALU(1, 2, 3)
	e.Mul(1, 2, 3)
	e.Div(1, 2, 3)
	e.Branch("b1", true, 4)
	e.Jump()
	e.Load(5, 6, 0x1000, 8)
	e.Store(6, 0x1008, 8, 5)
	e.NVLoad(7, 8, oid.New(3, 16), 8)
	e.NVStore(8, oid.New(3, 24), 8, 7)
	e.CLWB(0x1234)
	e.SFence()
	e.Flush()
	if e.Count() != 12 || len(buf.Instrs) != 12 {
		t.Fatalf("count = %d, buffered = %d", e.Count(), len(buf.Instrs))
	}
	if buf.Instrs[4].Op != isa.Branch || !buf.Instrs[4].Taken || buf.Instrs[4].PC == 0 {
		t.Error("branch must carry a stable nonzero PC and direction")
	}
	if buf.Instrs[8].Addr != uint64(oid.New(3, 16)) {
		t.Error("nvld must carry the ObjectID in Addr")
	}
	if buf.Instrs[10].Addr != 0x1234&^uint64(63) {
		t.Error("CLWB must be line-aligned")
	}
}

func TestBranchPCStable(t *testing.T) {
	var buf trace.Buffer
	e := New(&buf, Opt)
	e.Branch("site", true)
	e.Branch("site", false)
	e.Branch("other", true)
	e.Flush()
	if buf.Instrs[0].PC != buf.Instrs[1].PC {
		t.Error("same label must map to same PC")
	}
	if buf.Instrs[0].PC == buf.Instrs[2].PC {
		t.Error("different labels should map to different PCs")
	}
}

func TestComputeChains(t *testing.T) {
	var buf trace.Buffer
	e := New(&buf, Opt)
	r := e.Compute(12, 3)
	e.Flush()
	if len(buf.Instrs) != 12 {
		t.Fatalf("Compute(12) emitted %d", len(buf.Instrs))
	}
	if buf.Instrs[0].Src1 != 3 {
		t.Error("first op must consume the seed")
	}
	if r != buf.Instrs[len(buf.Instrs)-1].Dst {
		t.Error("Compute must return the final register")
	}
	// The block exposes ILP: its dataflow critical path must be shorter
	// than the instruction count but the final value must depend
	// (transitively) on the seed.
	depth := map[isa.Reg]int{3: 0}
	maxDepth := 0
	for _, in := range buf.Instrs {
		d := 0
		if v, ok := depth[in.Src1]; ok && v+1 > d {
			d = v + 1
		}
		if v, ok := depth[in.Src2]; ok && v+1 > d {
			d = v + 1
		}
		depth[in.Dst] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth >= 12 {
		t.Errorf("critical path %d must be shorter than 12 (ILP)", maxDepth)
	}
	if depth[r] == 0 {
		t.Error("result must depend on the seed")
	}
	// Small and degenerate forms.
	before := len(buf.Instrs)
	e.Compute(2, 4)
	e.Flush()
	if len(buf.Instrs)-before != 2 {
		t.Error("Compute(2) emits 2 instructions")
	}
	if got := e.Compute(0, 7); got != 7 {
		t.Error("Compute(0) returns the seed")
	}
	if got := e.Compute(0); got != isa.RZ {
		t.Error("Compute(0) with no seed returns RZ")
	}
	// Exact instruction counts for a range of sizes (the calibration of
	// oid_direct depends on them).
	for n := 1; n <= 40; n++ {
		var b2 trace.Buffer
		e2 := New(&b2, Opt)
		e2.Compute(n, 1)
		e2.Flush()
		if len(b2.Instrs) != n {
			t.Fatalf("Compute(%d) emitted %d", n, len(b2.Instrs))
		}
	}
}

func newSoft(t *testing.T) (*SoftTranslator, *Emitter, *vm.AddressSpace) {
	t.Helper()
	as := vm.NewAddressSpace(5)
	e := New(trace.Discard{}, Base)
	st, err := NewSoftTranslator(e, as, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return st, e, as
}

func TestSoftTranslatorValidation(t *testing.T) {
	as := vm.NewAddressSpace(5)
	e := New(trace.Discard{}, Base)
	if _, err := NewSoftTranslator(e, as, 0); err == nil {
		t.Error("0 buckets must fail")
	}
	if _, err := NewSoftTranslator(e, as, 300); err == nil {
		t.Error("non-power-of-two buckets must fail")
	}
	st, _, _ := newSoft(t)
	if err := st.Register(oid.NullPool, 0x1000); err == nil {
		t.Error("pool 0 must be rejected")
	}
	if err := st.Unregister(42); err == nil {
		t.Error("unknown unregister must fail")
	}
	if _, _, err := st.Translate(isa.RZ, oid.New(42, 0)); err == nil {
		t.Error("translate of unopened pool must fail")
	}
}

func TestSoftTranslateCorrectness(t *testing.T) {
	st, _, _ := newSoft(t)
	if err := st.Register(7, 0x7000_0000); err != nil {
		t.Fatal(err)
	}
	if err := st.Register(8, 0x8000_0000); err != nil {
		t.Fatal(err)
	}
	_, va, err := st.Translate(isa.RZ, oid.New(7, 0x123))
	if err != nil || va != 0x7000_0123 {
		t.Errorf("translate = %#x, %v", va, err)
	}
	_, va, _ = st.Translate(isa.RZ, oid.New(8, 0x4))
	if va != 0x8000_0004 {
		t.Errorf("translate pool 8 = %#x", va)
	}
	if base, ok := st.Lookup(7); !ok || base != 0x7000_0000 {
		t.Error("Lookup must resolve without emitting")
	}
	if _, ok := st.Lookup(99); ok {
		t.Error("Lookup of unknown pool must miss")
	}
	// Re-register updates the base.
	if err := st.Register(7, 0x9000_0000); err != nil {
		t.Fatal(err)
	}
	if base, _ := st.Lookup(7); base != 0x9000_0000 {
		t.Error("re-register must update")
	}
}

func TestSoftFastPathIs17Instructions(t *testing.T) {
	st, e, _ := newSoft(t)
	st.Register(7, 0x7000_0000)
	st.Translate(isa.RZ, oid.New(7, 0)) // cold: slow path, trains predictor
	before := e.Count()
	st.Translate(isa.RZ, oid.New(7, 8)) // same pool: predictor hit
	got := e.Count() - before
	if got != 17 {
		t.Errorf("fast path = %d instructions, paper Table 2 says 17", got)
	}
	s := st.Stats()
	if s.Calls != 2 || s.PredictorHits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSoftSlowPathCalibration(t *testing.T) {
	st, e, _ := newSoft(t)
	st.Register(7, 0x7000_0000)
	st.Register(8, 0x8000_0000)
	st.Translate(isa.RZ, oid.New(7, 0))
	before := e.Count()
	st.Translate(isa.RZ, oid.New(8, 0)) // predictor valid but wrong pool
	got := e.Count() - before
	// Paper Table 2: full look-ups average ~95–110 instructions.
	if got < 95 || got > 120 {
		t.Errorf("slow path = %d instructions, want ~109", got)
	}
}

func TestSoftPredictorMissRatePatterns(t *testing.T) {
	st, _, _ := newSoft(t)
	for p := oid.PoolID(1); p <= 8; p++ {
		st.Register(p, uint64(p)<<32)
	}
	// ALL-like pattern: one pool, repeated: ~0% miss after the first.
	for i := 0; i < 100; i++ {
		st.Translate(isa.RZ, oid.New(1, uint32(i*8)))
	}
	s := st.Stats()
	if s.PredictorMissRate() > 0.02 {
		t.Errorf("single-pool miss rate = %v", s.PredictorMissRate())
	}
	if got := s.InsnsPerCall(); got < 17 || got > 19 {
		t.Errorf("single-pool insns/call = %v, paper says 17.0", got)
	}
	// EACH-like pattern: a different pool every call: ~100% miss. The
	// counters are cumulative, so the pattern is what they gain past s.
	for i := 0; i < 100; i++ {
		st.Translate(isa.RZ, oid.New(oid.PoolID(1+i%8), 0))
	}
	now := st.Stats()
	s = SoftStats{Calls: now.Calls - s.Calls, PredictorHits: now.PredictorHits - s.PredictorHits, Insns: now.Insns - s.Insns}
	if s.PredictorMissRate() < 0.99 {
		t.Errorf("alternating-pool miss rate = %v", s.PredictorMissRate())
	}
	if got := s.InsnsPerCall(); got < 95 || got > 120 {
		t.Errorf("alternating insns/call = %v, paper's EACH averages ~97", got)
	}
}

func TestSoftUnregisterInvalidatesPredictor(t *testing.T) {
	st, _, _ := newSoft(t)
	st.Register(7, 0x7000_0000)
	st.Translate(isa.RZ, oid.New(7, 0))
	if err := st.Unregister(7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Translate(isa.RZ, oid.New(7, 0)); err == nil {
		t.Error("translate after unregister must fail")
	}
	// Re-register on the same chain reuses the freed entry.
	if err := st.Register(7, 0x9000_0000); err != nil {
		t.Fatal(err)
	}
	_, va, err := st.Translate(isa.RZ, oid.New(7, 4))
	if err != nil || va != 0x9000_0004 {
		t.Errorf("after re-register: %#x, %v", va, err)
	}
}

func TestSoftChainWalkCost(t *testing.T) {
	// Pools that collide in one bucket make the slow path longer.
	st, e, _ := newSoft(t)
	var colliding []oid.PoolID
	want := st.bucketOf(1)
	for p := oid.PoolID(1); len(colliding) < 4; p++ {
		if st.bucketOf(p) == want {
			colliding = append(colliding, p)
			st.Register(p, uint64(p)<<32)
		}
	}
	// Translate the last of the chain (deepest walk) vs the first.
	st.Translate(isa.RZ, oid.New(colliding[0], 0)) // train
	b1 := e.Count()
	st.Translate(isa.RZ, oid.New(colliding[1], 0))
	deep1 := e.Count() - b1
	st.Translate(isa.RZ, oid.New(colliding[0], 0))
	b2 := e.Count()
	st.Translate(isa.RZ, oid.New(colliding[3], 0))
	deep3 := e.Count() - b2
	if deep3 <= deep1 {
		t.Errorf("deeper chain walk must cost more: %d vs %d", deep3, deep1)
	}
}

func TestSoftStatsEmpty(t *testing.T) {
	var s SoftStats
	if s.PredictorMissRate() != 0 || s.InsnsPerCall() != 0 {
		t.Error("empty stats helpers")
	}
}
