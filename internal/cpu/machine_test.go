package cpu

import (
	"testing"

	"potgo/internal/core"
	"potgo/internal/isa"
	"potgo/internal/mem"
	"potgo/internal/oid"
	"potgo/internal/polb"
	"potgo/internal/pot"
	"potgo/internal/vm"
)

func TestResolveRejectsNonMemoryOps(t *testing.T) {
	as := vm.NewAddressSpace(1)
	m := &Machine{Hier: mem.New(mem.DefaultConfig(), as)}
	if _, err := m.resolve(isa.ALU, 0); err == nil {
		t.Error("resolve of ALU must error")
	}
}

func TestNVAccessToUnmappedPoolSurfacesException(t *testing.T) {
	as := vm.NewAddressSpace(2)
	table, err := pot.New(as, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr := core.New(core.DefaultConfig(polb.Pipelined), table, as)
	m := &Machine{Hier: mem.New(mem.DefaultConfig(), as), Translator: tr}
	// Pool 9 was never inserted into the POT: the hardware raises the
	// paper's exception, surfaced as a simulation error.
	if _, err := simulate(NewInOrder(DefaultConfig(), m), []isa.Instr{
		{Op: isa.NVLoad, Dst: 1, Addr: uint64(oid.New(9, 0)), Size: 8},
	}); err == nil {
		t.Error("POT miss must surface")
	}
	if _, err := simulate(NewOutOfOrder(DefaultConfig(), m), []isa.Instr{
		{Op: isa.NVStore, Addr: uint64(oid.Null), Size: 8},
	}); err == nil {
		t.Error("null ObjectID dereference must surface")
	}
}

func TestSFenceWithNoStoresIsFree(t *testing.T) {
	as := vm.NewAddressSpace(3)
	m := &Machine{Hier: mem.New(mem.DefaultConfig(), as)}
	res, err := simulate(NewInOrder(DefaultConfig(), m), []isa.Instr{
		{Op: isa.ALU, Dst: 1},
		{Op: isa.SFence},
		{Op: isa.ALU, Dst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles > 5 {
		t.Errorf("empty SFENCE must not stall: %d cycles", res.Cycles)
	}
}

func TestCLWBUnmappedLineErrors(t *testing.T) {
	as := vm.NewAddressSpace(4)
	m := &Machine{Hier: mem.New(mem.DefaultConfig(), as)}
	if _, err := simulate(NewInOrder(DefaultConfig(), m), []isa.Instr{
		{Op: isa.CLWB, Addr: 0xdead000, Size: 64},
	}); err == nil {
		t.Error("CLWB of unmapped line must error")
	}
}

func TestParallelDesignChargesTLBPerPaperMethodology(t *testing.T) {
	// DESIGN.md §5: the Parallel path still charges the D-TLB because
	// the paper's Sniper infrastructure does. Verify the TLB counter
	// moves on Parallel hits.
	as := vm.NewAddressSpace(5)
	table, _ := pot.New(as, 64)
	poolRegion, _ := as.Map(16 * vm.PageSize)
	_ = table.Insert(3, poolRegion.Base)
	tr := core.New(core.DefaultConfig(polb.Parallel), table, as)
	m := &Machine{Hier: mem.New(mem.DefaultConfig(), as), Translator: tr}
	var ins []isa.Instr
	for i := 0; i < 10; i++ {
		ins = append(ins, isa.Instr{Op: isa.NVLoad, Dst: 1, Addr: uint64(oid.New(3, uint32(i*8))), Size: 8})
	}
	res, err := simulate(NewInOrder(DefaultConfig(), m), ins)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.DTLB.Accesses() != 10 {
		t.Errorf("Parallel accesses must be charged to the D-TLB: %d of 10", res.Mem.DTLB.Accesses())
	}
}
