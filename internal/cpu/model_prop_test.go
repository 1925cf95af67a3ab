package cpu

import (
	"math/rand"
	"testing"

	"potgo/internal/core"
	"potgo/internal/isa"
	"potgo/internal/mem"
	"potgo/internal/oid"
	"potgo/internal/polb"
	"potgo/internal/pot"
	"potgo/internal/vm"
)

// propPool is the persistent pool runChunks maps behind Pipelined
// translation hardware, so random traces can carry nvld/nvst.
const propPool oid.PoolID = 5

// randomTrace builds a mixed but well-formed trace of every instruction
// class. Memory addresses are offsets into a 64 KiB region (runChunks
// rebases them onto its mapping) and nvld/nvst carry ObjectIDs in propPool.
func randomTrace(seed int64, n int, base uint64) []isa.Instr {
	rng := rand.New(rand.NewSource(seed))
	ins := make([]isa.Instr, 0, n)
	addr := func() uint64 { return base + uint64(rng.Intn(1<<14))&^7 }
	reg := func() isa.Reg { return isa.Reg(rng.Intn(16)) }
	dst := func() isa.Reg { return isa.Reg(1 + rng.Intn(15)) }
	for len(ins) < n {
		switch rng.Intn(20) {
		case 0, 1, 2, 3:
			ins = append(ins, isa.Instr{Op: isa.Load, Dst: dst(), Src1: reg(), Addr: addr(), Size: 8})
		case 4, 5:
			ins = append(ins, isa.Instr{Op: isa.Store, Src1: reg(), Src2: reg(), Addr: addr(), Size: 8})
		case 6, 7:
			ins = append(ins, isa.Instr{Op: isa.Branch, PC: uint64(rng.Intn(64) * 4), Taken: rng.Intn(2) == 0})
		case 8, 9:
			ins = append(ins, isa.Instr{Op: isa.Mul, Dst: dst(), Src1: reg()})
		case 10:
			ins = append(ins, isa.Instr{Op: isa.NVLoad, Dst: dst(), Src1: reg(),
				Addr: uint64(oid.New(propPool, uint32(addr()))), Size: 8})
		case 11:
			ins = append(ins, isa.Instr{Op: isa.NVStore, Src1: reg(), Src2: reg(),
				Addr: uint64(oid.New(propPool, uint32(addr()))), Size: 8})
		case 12:
			switch rng.Intn(5) {
			case 0:
				ins = append(ins, isa.Instr{Op: isa.Div, Dst: dst(), Src1: reg()})
			case 1:
				ins = append(ins, isa.Instr{Op: isa.CLWB, Addr: addr() &^ 63, Size: 64})
			case 2:
				ins = append(ins, isa.Instr{Op: isa.SFence})
			case 3:
				ins = append(ins, isa.Instr{Op: isa.Jump})
			default:
				ins = append(ins, isa.Instr{Op: isa.Nop})
			}
		default:
			ins = append(ins, isa.Instr{Op: isa.ALU, Dst: dst(), Src1: reg(), Src2: reg()})
		}
	}
	return ins
}

func runTrace(t *testing.T, inorder bool, memCfg mem.Config, coreCfg Config, instrs []isa.Instr) Result {
	t.Helper()
	return runChunks(t, inorder, memCfg, coreCfg, instrs, []int{len(instrs)})
}

// propMachine maps a 64 KiB data region and propPool behind Pipelined
// translation hardware, and returns the machine with a copy of instrs whose
// regular addresses are rebased onto the region.
func propMachine(tb testing.TB, memCfg mem.Config, instrs []isa.Instr) (*Machine, []isa.Instr) {
	tb.Helper()
	as := vm.NewAddressSpace(9)
	r, err := as.Map(1 << 16)
	if err != nil {
		tb.Fatal(err)
	}
	pool, err := as.Map(1 << 16)
	if err != nil {
		tb.Fatal(err)
	}
	table, err := pot.New(as, 64)
	if err != nil {
		tb.Fatal(err)
	}
	if err := table.Insert(propPool, pool.Base); err != nil {
		tb.Fatal(err)
	}
	rebased := make([]isa.Instr, len(instrs))
	copy(rebased, instrs)
	for i := range rebased {
		if in := &rebased[i]; in.Op.IsMem() && !in.Op.IsPersistent() {
			in.Addr = r.Base + (in.Addr & 0xffff & ^uint64(7))
		}
	}
	return &Machine{Hier: mem.New(memCfg, as), Translator: core.New(core.DefaultConfig(polb.Pipelined), table, as)}, rebased
}

// runChunks times instrs on a fresh machine, handing them to the model as
// consecutive chunks of the given sizes.
func runChunks(t *testing.T, inorder bool, memCfg mem.Config, coreCfg Config, instrs []isa.Instr, sizes []int) Result {
	t.Helper()
	m, rebased := propMachine(t, memCfg, instrs)
	var c timingModel = NewOutOfOrder(coreCfg, m)
	if inorder {
		c = NewInOrder(coreCfg, m)
	}
	for _, n := range sizes {
		c.Consume(rebased[:n])
		rebased = rebased[n:]
	}
	if len(rebased) != 0 {
		t.Fatalf("chunk sizes leave %d instructions unconsumed", len(rebased))
	}
	res, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// randomPartition cuts n instructions into chunks: empty ones,
// one-instruction ones, short ones and long ones, in random order.
func randomPartition(rng *rand.Rand, n int) []int {
	var sizes []int
	for n > 0 {
		var k int
		switch rng.Intn(5) {
		case 0:
			k = 0
		case 1:
			k = 1
		case 2:
			k = 2 + rng.Intn(40)
		default:
			k = 1 + rng.Intn(1500)
		}
		k = min(k, n)
		sizes = append(sizes, k)
		n -= k
	}
	return append(sizes, 0)
}

// resultFields prints a Result field by field rather than through its
// String method.
type resultFields Result

// Property: how the trace is cut into chunks never changes the result. The
// models carry all of their state across chunk boundaries, so any partition
// must reproduce feeding the trace as one chunk, in every Result field.
func TestChunkingInvariance(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		instrs := randomTrace(seed, 8000, 0)
		for _, inorder := range []bool{true, false} {
			whole := runTrace(t, inorder, mem.DefaultConfig(), DefaultConfig(), instrs)
			for trial := int64(0); trial < 3; trial++ {
				sizes := randomPartition(rand.New(rand.NewSource(seed*10+trial)), len(instrs))
				split := runChunks(t, inorder, mem.DefaultConfig(), DefaultConfig(), instrs, sizes)
				if split != whole {
					t.Fatalf("seed %d inorder=%t: %d chunks diverge from one chunk:\n got  %+v\n want %+v",
						seed, inorder, len(sizes), resultFields(split), resultFields(whole))
				}
			}
		}
	}
}

// Property: slower memory never makes execution faster, on either model.
func TestMemoryLatencyMonotonicity(t *testing.T) {
	instrs := randomTrace(3, 4000, 0)
	for _, inorder := range []bool{true, false} {
		fast := mem.DefaultConfig()
		slow := mem.DefaultConfig()
		slow.MemLatency = 400
		slow.L2Latency = 20
		slow.L3Latency = 60
		rFast := runTrace(t, inorder, fast, DefaultConfig(), instrs)
		rSlow := runTrace(t, inorder, slow, DefaultConfig(), instrs)
		if rSlow.Cycles < rFast.Cycles {
			t.Errorf("inorder=%t: slower memory sped execution up: %d < %d",
				inorder, rSlow.Cycles, rFast.Cycles)
		}
	}
}

// Property: a wider out-of-order machine is never slower than a narrower
// one with the same window contents.
func TestWidthMonotonicity(t *testing.T) {
	instrs := randomTrace(5, 4000, 0)
	narrow := DefaultConfig()
	narrow.FetchWidth, narrow.IssueWidth, narrow.CommitWidth = 1, 1, 1
	wide := DefaultConfig()
	rNarrow := runTrace(t, false, mem.DefaultConfig(), narrow, instrs)
	rWide := runTrace(t, false, mem.DefaultConfig(), wide, instrs)
	if rWide.Cycles > rNarrow.Cycles {
		t.Errorf("width-4 machine slower than width-1: %d > %d", rWide.Cycles, rNarrow.Cycles)
	}
}

// Property: a larger ROB is never slower.
func TestROBMonotonicity(t *testing.T) {
	instrs := randomTrace(7, 4000, 0)
	small := DefaultConfig()
	small.ROB, small.LQ, small.SQ = 16, 8, 8
	big := DefaultConfig()
	rSmall := runTrace(t, false, mem.DefaultConfig(), small, instrs)
	rBig := runTrace(t, false, mem.DefaultConfig(), big, instrs)
	if rBig.Cycles > rSmall.Cycles {
		t.Errorf("ROB-128 slower than ROB-16: %d > %d", rBig.Cycles, rSmall.Cycles)
	}
}

// Property: the out-of-order model never loses to the in-order model on the
// same trace (same fetch discipline, strictly more reordering freedom).
func TestOoONeverSlowerThanInOrder(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		instrs := randomTrace(seed, 3000, 0)
		rIn := runTrace(t, true, mem.DefaultConfig(), DefaultConfig(), instrs)
		rOoO := runTrace(t, false, mem.DefaultConfig(), DefaultConfig(), instrs)
		// Allow a small tolerance: commit-width bubbles can differ.
		if float64(rOoO.Cycles) > float64(rIn.Cycles)*1.05 {
			t.Errorf("seed %d: OoO (%d) much slower than in-order (%d)", seed, rOoO.Cycles, rIn.Cycles)
		}
	}
}

// Both models execute every instruction exactly once.
func TestInstructionAccounting(t *testing.T) {
	instrs := randomTrace(11, 2500, 0)
	rIn := runTrace(t, true, mem.DefaultConfig(), DefaultConfig(), instrs)
	rOoO := runTrace(t, false, mem.DefaultConfig(), DefaultConfig(), instrs)
	if rIn.Instructions != uint64(len(instrs)) || rOoO.Instructions != uint64(len(instrs)) {
		t.Errorf("instruction counts: in=%d ooo=%d want %d",
			rIn.Instructions, rOoO.Instructions, len(instrs))
	}
	if rIn.Mix.Total != rOoO.Mix.Total {
		t.Error("mix accounting diverged")
	}
}

// Determinism: the same trace yields the same cycle count.
func TestModelDeterminism(t *testing.T) {
	instrs := randomTrace(13, 2000, 0)
	a := runTrace(t, false, mem.DefaultConfig(), DefaultConfig(), instrs)
	b := runTrace(t, false, mem.DefaultConfig(), DefaultConfig(), instrs)
	if a.Cycles != b.Cycles {
		t.Errorf("nondeterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}

// LQ/SQ pressure: a load/store-heavy trace must still complete with tiny
// queues, just more slowly.
func TestTinyQueues(t *testing.T) {
	var instrs []isa.Instr
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			instrs = append(instrs, isa.Instr{Op: isa.Load, Dst: 1, Addr: uint64(i * 64), Size: 8})
		} else {
			instrs = append(instrs, isa.Instr{Op: isa.Store, Src2: 1, Addr: uint64(i * 64), Size: 8})
		}
	}
	tiny := DefaultConfig()
	tiny.LQ, tiny.SQ = 2, 2
	rTiny := runTrace(t, false, mem.DefaultConfig(), tiny, instrs)
	rBig := runTrace(t, false, mem.DefaultConfig(), DefaultConfig(), instrs)
	if rTiny.Cycles < rBig.Cycles {
		t.Errorf("tiny queues faster than default: %d < %d", rTiny.Cycles, rBig.Cycles)
	}
}
