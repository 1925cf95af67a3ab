package main

import (
	"runtime"
	"time"

	"potgo/internal/cache"
	"potgo/internal/core"
	"potgo/internal/harness"
	"potgo/internal/isa"
	"potgo/internal/mem"
	"potgo/internal/oid"
	"potgo/internal/polb"
	"potgo/internal/pot"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

// traceSimScaleDivisor shrinks the traced grid: it runs every simulation
// twice (timed, then functionally) and one at a time, so that the two can be
// subtracted.
const traceSimScaleDivisor = 4

// traceSim is the traced run of sim_grid. A simulation's producer and its
// core model alternate strictly (trace.Lockstep), so the wall time of a run
// is the workload's functional execution plus the chunk hand-offs plus the
// core model, and running the same spec functionally isolates the first.
func traceSim(o options, res *result) error {
	m := res.Metrics
	scale := simScale(o.seconds, o.quick)
	if !o.quick {
		scale /= traceSimScaleDivisor
	}
	specs := simSpecs(simBenches(o.quick), scale)
	ov := timerOverhead().Nanoseconds()

	lockstep := lockstepNsPerInsn()
	m["trace.lockstep_ns_per_insn"] = lockstep

	rec := &recorder{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	type sums struct{ self, insns float64 }
	var inorder, ooo sums
	var functional, insns float64
	results := make([]harness.RunResult, len(specs))
	runNs := make([]int64, len(specs))
	for i, sp := range specs {
		sp.Seed = int64(o.seed)
		t0 := time.Now()
		r, err := harness.Run(sp)
		runNs[i] = max(0, time.Since(t0).Nanoseconds()-ov)
		if err != nil {
			return err
		}
		results[i] = r
	}
	runtime.ReadMemStats(&ms)
	for _, r := range results {
		insns += float64(r.CPU.Instructions)
	}
	m["harness.allocs_per_kinsn"] = per(float64(ms.Mallocs-mallocs), insns/1000)

	for i, sp := range specs {
		sp.Seed = int64(o.seed)
		t0 := time.Now()
		f, err := harness.RunFunctional(sp)
		fn := max(0, time.Since(t0).Nanoseconds()-ov)
		if err != nil {
			return err
		}
		res.Attempted++
		if f.CPU.Instructions != results[i].CPU.Instructions || f.Checksum != results[i].Checksum {
			res.fail(1, sp.Label()+": functional run disagrees with the timed run")
		}
		n := float64(f.CPU.Instructions)
		root := rec.root("harness.run", sp.Core.String(), i, runNs[i])
		fs := rec.child(root, "emit.functional", fn)
		fn = rec.spans[fs-1].Dur
		model := max(0, runNs[i]-fn-int64(lockstep*n))
		rec.child(root, "cpu.model", model)
		functional += float64(fn)
		if sp.Core == harness.InOrder {
			inorder.self, inorder.insns = inorder.self+float64(model), inorder.insns+n
		} else {
			ooo.self, ooo.insns = ooo.self+float64(model), ooo.insns+n
		}
	}
	m["emit.functional_ns_per_insn"] = per(functional, insns)
	m["cpu.inorder_self_ns_per_insn"] = per(inorder.self, inorder.insns)
	m["cpu.ooo_self_ns_per_insn"] = per(ooo.self, ooo.insns)

	if err := simComponents(m, o.quick); err != nil {
		return err
	}
	res.Params["trace_requests"] = float64(len(specs))
	return finishTrace(o, res, rec, len(specs), float64(ov))
}

// lockstepNsPerInsn times the producer-to-consumer hand-off alone: a
// producer that only emits, a consumer that only drains.
func lockstepNsPerInsn() float64 {
	const n = 4 << 20
	in := isa.Instr{Op: isa.ALU, Dst: 1, Src1: 2}
	start := time.Now()
	ls := trace.GenerateLockstep(func(sink trace.Sink) {
		for i := 0; i < n; i++ {
			sink.Emit(in)
		}
	})
	got := 0
	for {
		if _, ok := ls.Next(); !ok {
			break
		}
		got++
	}
	ls.Close()
	return float64(time.Since(start).Nanoseconds()) / float64(got)
}

// simComponents times the simulator's hot structures one call at a time, the
// same calls the repository's component benchmarks (bench_test.go) make.
func simComponents(m map[string]float64, quick bool) error {
	n := 2000000
	if quick {
		n = 20000
	}
	loop := func(fn func(i int) error) (float64, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n), nil
	}
	var err error

	p := polb.New(polb.Pipelined, 32)
	for i := 0; i < 32; i++ {
		p.Fill(oid.New(oid.PoolID(i+1), 0), uint64(i)<<12)
	}
	if m["polb.lookup_ns"], err = loop(func(i int) error {
		p.Lookup(oid.New(oid.PoolID(i%32+1), uint32(i)))
		return nil
	}); err != nil {
		return err
	}

	as := vm.NewAddressSpace(1)
	table, err := pot.New(as, pot.DefaultEntries)
	if err != nil {
		return err
	}
	for i := 1; i <= 1024; i++ {
		if err := table.Insert(oid.PoolID(i), uint64(i)<<20); err != nil {
			return err
		}
	}
	if m["pot.walk_ns"], err = loop(func(i int) error {
		_, _, err := table.Walk(oid.PoolID(i%1024 + 1))
		return err
	}); err != nil {
		return err
	}

	as2 := vm.NewAddressSpace(1)
	table2, err := pot.New(as2, 1024)
	if err != nil {
		return err
	}
	region, err := as2.Map(1 << 20)
	if err != nil {
		return err
	}
	if err := table2.Insert(7, region.Base); err != nil {
		return err
	}
	tr := core.New(core.DefaultConfig(polb.Pipelined), table2, as2)
	if m["core.translate_ns"], err = loop(func(i int) error {
		_, err := tr.Translate(oid.New(7, uint32(i)&0xfffff))
		return err
	}); err != nil {
		return err
	}

	c := cache.New(cache.Config{Name: "L1D", Sets: 64, Ways: 8, LineShift: 6, Latency: 3})
	if m["cache.access_ns"], err = loop(func(i int) error {
		c.Access(uint64(i) * 64 % (1 << 20))
		return nil
	}); err != nil {
		return err
	}

	h := mem.New(mem.DefaultConfig(), as2)
	m["mem.access_ns"], err = loop(func(i int) error {
		_, err := h.DataAccess(region.Base + uint64(i)%4096)
		return err
	})
	return err
}
