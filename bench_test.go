// Top-level benchmarks: one per table and figure of the paper's evaluation,
// plus component microbenchmarks for the simulator's hot structures.
//
// Each BenchmarkTableN / BenchmarkFigN regenerates its experiment at a
// reduced operation count (so `go test -bench=.` completes in minutes) and
// reports the headline number as a custom metric. Paper-scale numbers come
// from `go run ./cmd/experiments` (see EXPERIMENTS.md).
package potgo

import (
	"testing"
	"time"

	"potgo/internal/cache"
	"potgo/internal/core"
	"potgo/internal/cpu"
	"potgo/internal/harness"
	"potgo/internal/isa"
	"potgo/internal/mem"
	"potgo/internal/oid"
	"potgo/internal/polb"
	"potgo/internal/pot"
	"potgo/internal/vm"
	"potgo/internal/workloads"
)

func benchSuite() *harness.Suite {
	return harness.NewSuite(harness.Options{
		Seed:    1,
		Ops:     300,
		TPCCOps: 100,
		TPCC:    true,
	})
}

// BenchmarkTable2 regenerates Table 2 (oid_direct instruction costs).
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rep, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Values["geomean_insns_all"], "insns/call_ALL")
		b.ReportMetric(rep.Values["geomean_insns_each"], "insns/call_EACH")
	}
}

// BenchmarkFig9a regenerates Figure 9(a) (in-order speedups, both designs).
func BenchmarkFig9a(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rep, err := s.Fig9a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Values["geomean_random_pipelined"], "speedup_RANDOM_pipe")
		b.ReportMetric(rep.Values["geomean_random_parallel"], "speedup_RANDOM_par")
	}
}

// BenchmarkFig9b regenerates Figure 9(b) (out-of-order speedups).
func BenchmarkFig9b(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rep, err := s.Fig9b()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Values["geomean_random_pipelined"], "speedup_RANDOM_ooo")
	}
}

// BenchmarkTable8 regenerates Table 8 (POLB miss rates).
func BenchmarkTable8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rep, err := s.Table8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.Values["LL_EACH_parallel_miss"], "LL_EACH_par_miss_pct")
	}
}

// BenchmarkFig10 regenerates Figure 10 (no-failure-safety speedups).
func BenchmarkFig10(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rep, err := s.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Values["geomean_random_pipelined_ntx"], "speedup_RANDOM_ntx")
	}
}

// BenchmarkFig11 regenerates Figure 11 (POLB size sensitivity).
func BenchmarkFig11(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rep, err := s.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Values["BST_Pipelined_size32"], "BST_speedup_polb32")
		b.ReportMetric(rep.Values["BST_Pipelined_size-1"], "BST_speedup_noPOLB")
	}
}

// BenchmarkTable9 regenerates Table 9 (POLB size vs miss rate, NTX).
func BenchmarkTable9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rep, err := s.Table9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.Values["LL_Pipelined_1_miss"], "LL_pipe_size1_miss_pct")
	}
}

// BenchmarkFig12 regenerates Figure 12 (POT-walk penalty sensitivity).
func BenchmarkFig12(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rep, err := s.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Values["LL_walk30"], "LL_speedup_walk30")
		b.ReportMetric(rep.Values["LL_walk500"], "LL_speedup_walk500")
	}
}

// BenchmarkInsnReduction regenerates the dynamic-instruction-count claim.
func BenchmarkInsnReduction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rep, err := s.InsnReduction()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.Values["mean_reduction"], "mean_reduction_pct")
	}
}

// BenchmarkTPCC regenerates the TPC-C rows of Figure 9 on the reduced
// database.
func BenchmarkTPCC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base, err := harness.Run(harness.RunSpec{
			Bench: harness.TPCCBench, Pattern: workloads.Each, Tx: true,
			Core: harness.InOrder, Ops: 100, Seed: 1, TPCC: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		opt, err := harness.Run(harness.RunSpec{
			Bench: harness.TPCCBench, Pattern: workloads.Each, Tx: true,
			Core: harness.InOrder, Ops: 100, Seed: 1, TPCC: true,
			Opt: true, Design: polb.Pipelined,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(base.CPU.Cycles)/float64(opt.CPU.Cycles), "speedup_TPCC_EACH")
	}
}

// --- component microbenchmarks ---

// BenchmarkPOLBLookup measures the POLB CAM model.
func BenchmarkPOLBLookup(b *testing.B) {
	p := polb.New(polb.Pipelined, 32)
	for i := 0; i < 32; i++ {
		p.Fill(oid.New(oid.PoolID(i+1), 0), uint64(i)<<12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Lookup(oid.New(oid.PoolID(i%32+1), uint32(i)))
	}
}

// BenchmarkPOTWalk measures the hardware POT walk model.
func BenchmarkPOTWalk(b *testing.B) {
	as := vm.NewAddressSpace(1)
	table, err := pot.New(as, pot.DefaultEntries)
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= 1024; i++ {
		if err := table.Insert(oid.PoolID(i), uint64(i)<<20); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := table.Walk(oid.PoolID(i%1024 + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslator measures the full translation engine (POLB hit path).
func BenchmarkTranslator(b *testing.B) {
	as := vm.NewAddressSpace(1)
	table, _ := pot.New(as, 1024)
	r, _ := as.Map(1 << 20)
	_ = table.Insert(7, r.Base)
	tr := core.New(core.DefaultConfig(polb.Pipelined), table, as)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Translate(oid.New(7, uint32(i)&0xfffff)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheAccess measures the set-associative cache model.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Config{Name: "L1D", Sets: 64, Ways: 8, LineShift: 6, Latency: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 64 % (1 << 20))
	}
}

// BenchmarkHierarchy measures a full warm data access (TLB + page table +
// cache walk).
func BenchmarkHierarchy(b *testing.B) {
	as := vm.NewAddressSpace(1)
	r, _ := as.Map(1 << 20)
	h := mem.New(mem.DefaultConfig(), as)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.DataAccess(r.Base + uint64(i)%4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInOrderModel measures in-order simulation throughput
// (instructions simulated per second on an ALU-heavy trace, handed to a
// fresh model as one chunk).
func BenchmarkInOrderModel(b *testing.B) {
	benchCPUModel(b, true)
}

// BenchmarkOoOModel measures out-of-order simulation throughput.
func BenchmarkOoOModel(b *testing.B) {
	benchCPUModel(b, false)
}

func benchCPUModel(b *testing.B, inorder bool) {
	as := vm.NewAddressSpace(1)
	r, _ := as.Map(1 << 20)
	instrs := make([]isa.Instr, 4096)
	for i := range instrs {
		switch i % 8 {
		case 0:
			instrs[i] = isa.Instr{Op: isa.Load, Dst: 1, Addr: r.Base + uint64(i%512)*64, Size: 8}
		case 4:
			instrs[i] = isa.Instr{Op: isa.Branch, PC: uint64(i % 64 * 4), Taken: i%3 == 0}
		default:
			instrs[i] = isa.Instr{Op: isa.ALU, Dst: isa.Reg(1 + i%16), Src1: isa.Reg(1 + (i+1)%16)}
		}
	}
	machine := &cpu.Machine{Hier: mem.New(mem.DefaultConfig(), as)}
	b.SetBytes(int64(len(instrs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var model interface {
			Consume([]isa.Instr)
			Result() (cpu.Result, error)
		} = cpu.NewOutOfOrder(cpu.DefaultConfig(), machine)
		if inorder {
			model = cpu.NewInOrder(cpu.DefaultConfig(), machine)
		}
		model.Consume(instrs)
		if _, err := model.Result(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimSpeed is the observability-overhead guard: one complete timed
// OPT simulation per core model with every internal/obs hook left at its
// disabled (nil) default, reporting simulated MIPS. Instrumentation changes
// must not regress it measurably (< 2%).
func BenchmarkSimSpeed(b *testing.B) {
	for _, core := range []harness.CoreKind{harness.InOrder, harness.OutOfOrder} {
		b.Run(core.String(), func(b *testing.B) {
			spec := harness.RunSpec{
				Bench: "LL", Pattern: workloads.Random, Tx: true,
				Opt: true, Design: polb.Pipelined, Core: core,
				Ops: 2000, Seed: 1,
			}
			var insns uint64
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				insns += res.CPU.Instructions
			}
			wall := time.Since(start).Seconds()
			b.ReportMetric(float64(insns)/wall/1e6, "simMIPS")
		})
	}
}

// BenchmarkEndToEnd measures one complete timed simulation (the workload's
// emitter handing each trace chunk to the in-order timing model on the same
// goroutine) and reports simulator
// throughput as simMIPS plus steady-state allocation cost; insns/op makes the
// allocs/op figure comparable across changes to the workload generator.
func BenchmarkEndToEnd(b *testing.B) {
	spec := harness.RunSpec{
		Bench: "BST", Pattern: workloads.Random, Tx: true,
		Core: harness.InOrder, Ops: 300, Seed: 2,
	}
	var insns uint64
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		insns += res.CPU.Instructions
	}
	wall := time.Since(start).Seconds()
	b.ReportMetric(float64(insns)/float64(b.N), "insns/op")
	b.ReportMetric(float64(insns)/wall/1e6, "simMIPS")
}

// BenchmarkWorkloadEmission measures trace-generation (functional execution
// + instruction emission into a discarded chunk) throughput.
func BenchmarkWorkloadEmission(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := harness.RunSpec{Bench: "BST", Pattern: workloads.Random, Tx: true, Ops: 200, Seed: 2}
		if _, err := harness.RunFunctional(spec); err != nil {
			b.Fatal(err)
		}
	}
}
