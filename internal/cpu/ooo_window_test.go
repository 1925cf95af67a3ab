package cpu

import (
	"testing"

	"potgo/internal/isa"
	"potgo/internal/mem"
	"potgo/internal/vm"
)

func oooRun(t *testing.T, cfg Config, instrs []isa.Instr) Result {
	t.Helper()
	as := vm.NewAddressSpace(21)
	r, err := as.Map(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	rebased := make([]isa.Instr, len(instrs))
	copy(rebased, instrs)
	for i := range rebased {
		if rebased[i].Op.IsMem() {
			rebased[i].Addr = r.Base + (rebased[i].Addr & 0xffff & ^uint64(7))
		}
	}
	m := &Machine{Hier: mem.New(mem.DefaultConfig(), as)}
	res, err := simulate(NewOutOfOrder(cfg, m), rebased)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A mispredicted branch must delay the dispatch of everything younger: the
// same ALU stream after a mispredicting branch finishes later than after a
// well-predicted one.
func TestOoOMispredictRedirectsFrontEnd(t *testing.T) {
	mk := func(alternating bool) []isa.Instr {
		var ins []isa.Instr
		for i := 0; i < 400; i++ {
			taken := true
			if alternating {
				taken = i%2 == 0
			}
			ins = append(ins, isa.Instr{Op: isa.Branch, PC: 0x80, Taken: taken})
			for j := 0; j < 3; j++ {
				ins = append(ins, isa.Instr{Op: isa.ALU, Dst: isa.Reg(1 + j)})
			}
		}
		return ins
	}
	good := oooRun(t, DefaultConfig(), mk(false))
	bad := oooRun(t, DefaultConfig(), mk(true))
	if bad.Cycles <= good.Cycles {
		t.Errorf("mispredicting stream (%d cy) must be slower than predictable (%d cy)",
			bad.Cycles, good.Cycles)
	}
	if bad.BranchStallCycles == 0 {
		t.Error("mispredict cycles must be attributed")
	}
	if good.CPIStack().Branch > bad.CPIStack().Branch {
		t.Error("CPI stack branch bucket inverted")
	}
}

// Store-to-load forwarding: a load overlapping an older in-flight store
// must not read stale memory timing-wise — it completes no earlier than the
// store's SQ data availability.
func TestOoOForwardingRespectsStoreReadiness(t *testing.T) {
	// A long-latency producer feeds the store's data; the dependent load
	// of the same address cannot complete before that chain resolves.
	var ins []isa.Instr
	// 30-deep dependent ALU chain into r5.
	ins = append(ins, isa.Instr{Op: isa.ALU, Dst: 5})
	for i := 0; i < 30; i++ {
		ins = append(ins, isa.Instr{Op: isa.ALU, Dst: 5, Src1: 5})
	}
	ins = append(ins,
		isa.Instr{Op: isa.Store, Src2: 5, Addr: 0x100, Size: 8},
		isa.Instr{Op: isa.Load, Dst: 6, Addr: 0x100, Size: 8},
	)
	res := oooRun(t, DefaultConfig(), ins)
	// The chain alone takes 31 cycles of issue; the forwarded load must
	// commit after it. With wrong forwarding the load could commit at
	// ~15 cycles (cold L1 fill would actually be ~150, so bound below).
	if res.Cycles < 33 {
		t.Errorf("forwarded load completed before its producer chain: %d cycles", res.Cycles)
	}
}

// Loads to disjoint addresses must NOT be serialized by unrelated stores
// (no false dependencies).
func TestOoONoFalseStoreDependencies(t *testing.T) {
	var conflict, disjoint []isa.Instr
	for i := 0; i < 200; i++ {
		conflict = append(conflict,
			isa.Instr{Op: isa.Store, Addr: 0x200, Size: 8},
			isa.Instr{Op: isa.Load, Dst: 1, Addr: 0x200, Size: 8},
		)
		disjoint = append(disjoint,
			isa.Instr{Op: isa.Store, Addr: 0x200, Size: 8},
			isa.Instr{Op: isa.Load, Dst: 1, Addr: 0x400, Size: 8},
		)
	}
	rConflict := oooRun(t, DefaultConfig(), conflict)
	rDisjoint := oooRun(t, DefaultConfig(), disjoint)
	// Disjoint loads hit the L1 independently; they must not be slower
	// than the conflicting (forwarded) case by any large margin.
	if rDisjoint.Cycles > rConflict.Cycles*2 {
		t.Errorf("disjoint loads serialized: %d vs %d cycles", rDisjoint.Cycles, rConflict.Cycles)
	}
}

// The frontend depth shifts completion by a constant, not a factor.
func TestOoOFrontendDepth(t *testing.T) {
	instrs := make([]isa.Instr, 100)
	for i := range instrs {
		instrs[i] = isa.Instr{Op: isa.ALU, Dst: isa.Reg(1 + i%8)}
	}
	shallow := DefaultConfig()
	shallow.FrontendDepth = 0
	deep := DefaultConfig()
	deep.FrontendDepth = 20
	rs := oooRun(t, shallow, instrs)
	rd := oooRun(t, deep, instrs)
	diff := int64(rd.Cycles) - int64(rs.Cycles)
	if diff < 15 || diff > 25 {
		t.Errorf("frontend depth 0->20 shifted cycles by %d, want ~20", diff)
	}
}

// Multiple CLWBs drain concurrently (post-commit) but SFENCE waits for the
// slowest.
func TestOoOCLWBDrainOverlap(t *testing.T) {
	var ins []isa.Instr
	for i := 0; i < 8; i++ {
		ins = append(ins, isa.Instr{Op: isa.CLWB, Addr: uint64(0x1000 + i*64), Size: 64})
	}
	ins = append(ins, isa.Instr{Op: isa.SFence})
	res := oooRun(t, DefaultConfig(), ins)
	// Serialized CLWBs would take 8*100 = 800+; overlapped they finish
	// in ~100 + commit pipeline.
	if res.Cycles > 300 {
		t.Errorf("CLWBs appear serialized: %d cycles", res.Cycles)
	}
	if res.Cycles < 100 {
		t.Errorf("SFENCE cannot retire before the 100-cycle CLWB drain: %d cycles", res.Cycles)
	}
}
