// Package harness drives the paper's experiments: it assembles a simulated
// machine (memory hierarchy, optional POLB/POT translation hardware, an
// in-order or out-of-order core), runs a workload against the persistent
// memory library in BASE or OPT mode, hands the emitted instruction stream
// to the timing model chunk by chunk on the workload's own goroutine, and
// collects the statistics every table and figure of the evaluation needs.
package harness

import (
	"fmt"

	"potgo/internal/core"
	"potgo/internal/cpu"
	"potgo/internal/emit"
	"potgo/internal/mem"
	"potgo/internal/obs"
	"potgo/internal/pmem"
	"potgo/internal/polb"
	"potgo/internal/pot"
	"potgo/internal/tpcc"
	"potgo/internal/trace"
	"potgo/internal/vm"
	"potgo/internal/workloads"
)

// CoreKind selects the timing model.
type CoreKind int

const (
	// InOrder is the five-stage pipeline (paper §4.5).
	InOrder CoreKind = iota
	// OutOfOrder is the ROB timestamp model (paper §4.4).
	OutOfOrder
)

func (c CoreKind) String() string {
	if c == InOrder {
		return "in-order"
	}
	return "out-of-order"
}

// TPCCBench is the bench name selecting the TPC-C application instead of a
// microbenchmark.
const TPCCBench = "TPCC"

// MicroBenches lists the Table 5 microbenchmark abbreviations in paper
// order.
var MicroBenches = []string{"LL", "BST", "SPS", "RBT", "BT", "B+T"}

// RunSpec describes one simulation run.
type RunSpec struct {
	// Bench is a microbenchmark abbreviation or TPCCBench.
	Bench string
	// Pattern is the pool usage pattern. For TPCC, All means TPCC_ALL
	// and Each means TPCC_EACH.
	Pattern workloads.Pattern
	// Opt selects hardware translation (OPT); false is BASE.
	Opt bool
	// FixedMap selects the FIXED baseline instead: pools at fixed
	// addresses accessed through raw pointers (the Mnemosyne-style
	// alternative of the paper's introduction) — no ObjectID translation
	// at all, and no ASLR for persistent segments. Mutually exclusive
	// with Opt.
	FixedMap bool
	// Tx enables failure-safety/durability (off = the *_NTX configs).
	Tx bool
	// FT runs the workload over fault-tolerant pools: per-object CRC32C
	// checksums and a parity column maintained at every commit. Used to
	// price the media-fault-tolerance tax on whole benchmarks
	// (MeasureFTOverhead), not just the KV get path.
	// VerifyOnRead stays off — workload setup writes outside
	// transactions, so read-side verification is priced separately by
	// MeasureVerifyOverhead.
	FT bool
	// Core picks the timing model.
	Core CoreKind
	// Design picks the POLB microarchitecture for OPT runs.
	Design polb.Design
	// POLBSize: 0 = the paper default (32); negative = no POLB.
	POLBSize int
	// POTWalk: 0 = design default; core.ZeroWalk = free walk; >0 cycles.
	POTWalk int64
	// POLBSets > 1 selects the set-associative POLB ablation.
	POLBSets int
	// POTEntries overrides the POT capacity (0 = the paper's 16384).
	POTEntries int
	// ProbeWalk selects the probe-accurate POT-walk latency ablation.
	ProbeWalk bool
	// Prefetch enables the L1 next-line prefetcher ablation.
	Prefetch bool
	// Ideal charges no translation latency at all (Figure 9's red dots).
	Ideal bool
	// Ops overrides the benchmark's operation count (0 = paper default;
	// TPC-C default is 1000 transactions).
	Ops int
	// Seed drives all randomness.
	Seed int64
	// TPCC selects the down-scaled TPC-C database (tpcc.TestConfig;
	// false = full spec scale).
	TPCC bool
}

// RunResult is the outcome of one run.
type RunResult struct {
	Spec RunSpec
	// CPU carries cycles, instruction counts, cache/TLB/POLB statistics.
	CPU cpu.Result
	// Soft is the BASE-mode oid_direct instrumentation (zero for OPT).
	Soft emit.SoftStats
	// Checksum is the workload's functional result; paired BASE/OPT runs
	// must agree.
	Checksum uint64
	// Pools is the number of pools the run created.
	Pools int
}

func (s RunSpec) opsAndRange() (int, uint64, error) {
	if err := s.check(); err != nil {
		return 0, 0, fmt.Errorf("harness: %w", err)
	}
	ops, keyRange := 1000, uint64(0) // TPC-C: 1000 transactions
	if w, ok := workloads.ByAbbr(s.Bench); ok {
		ops, keyRange = w.DefaultOps, w.DefaultKeyRange
	}
	if s.Ops != 0 {
		ops = s.Ops
	}
	return ops, keyRange, nil
}

// Run executes one simulation.
func Run(spec RunSpec) (RunResult, error) {
	return RunObserved(spec, RunObs{})
}

// RunObserved is Run with observability sinks attached: end-of-run
// statistics are published into ro.Metrics and (when ro.Trace is set)
// sampled per-instruction pipeline timestamps stream into the trace. A
// zero RunObs makes it exactly Run.
//
// The workload runs on the calling goroutine. Its emitter is the timing
// model's only feed: every trace.ChunkSize instructions, and once at the
// end, it hands the model the whole chunk and waits for it to be timed, so
// the model sees the address space, POT and POLB exactly as the workload
// left them at that point. A model error (an unmapped address, a NULL ObjectID, a POT miss) stops the
// timing; the run then fails with a "simulation" error.
func RunObserved(spec RunSpec, ro RunObs) (RunResult, error) {
	ops, keyRange, err := spec.opsAndRange()
	if err != nil {
		return RunResult{}, err
	}
	tm, err := newTimedMachine(spec, ro)
	if err != nil {
		return RunResult{}, err
	}
	out, h, werr := runWorkload(spec, ops, keyRange, tm.as, tm.model, tm.potTable, tm.tr)
	res, err := tm.model.Result()
	if err != nil {
		return RunResult{}, fmt.Errorf("harness: %s: simulation: %w", spec.Label(), err)
	}
	if werr != nil {
		return RunResult{}, fmt.Errorf("harness: %s: workload: %w", spec.Label(), werr)
	}
	out.CPU = res
	out.publish(ro.Metrics, tm.tr, h)
	return out, nil
}

// timedMachine is the simulated machine a timed run assembles before its
// workload starts: the address space, the timing model over it and, for
// OPT, the POT and the translation hardware (nil otherwise).
type timedMachine struct {
	as       *vm.AddressSpace
	model    timingModel
	potTable *pot.Table
	tr       *core.Translator
}

func newTimedMachine(spec RunSpec, ro RunObs) (timedMachine, error) {
	as := vm.NewAddressSpace(spec.Seed ^ 0x5eed)
	memCfg := mem.DefaultConfig()
	memCfg.NextLinePrefetch = spec.Prefetch
	hier := mem.New(memCfg, as)
	machine := &cpu.Machine{Hier: hier}
	if ro.Trace != nil {
		machine.Tracer = obs.NewPipelineTracer(ro.Trace, traceEvery)
	}

	tm := timedMachine{as: as}
	if spec.Opt {
		entries := spec.POTEntries
		if entries == 0 {
			entries = pot.DefaultEntries
		}
		var err error
		tm.potTable, err = pot.New(as, entries)
		if err != nil {
			return timedMachine{}, err
		}
		size := spec.POLBSize
		switch {
		case size < 0:
			size = 0
		case size == 0:
			size = polb.DefaultEntries
		}
		tm.tr = core.New(core.Config{
			Design:         spec.Design,
			POLBSize:       size,
			POLBSets:       spec.POLBSets,
			POTWalkLatency: spec.POTWalk,
			Ideal:          spec.Ideal,
			ProbeWalk:      spec.ProbeWalk,
		}, tm.potTable, as)
		tm.tr.SetWalker(hier)
		machine.Translator = tm.tr
	}

	tm.model = cpu.NewOutOfOrder(cpu.DefaultConfig(), machine)
	if spec.Core == InOrder {
		tm.model = cpu.NewInOrder(cpu.DefaultConfig(), machine)
	}
	return tm, nil
}

// timingModel is what a run needs of cpu.InOrder and cpu.OutOfOrder: the
// emitter's chunks in, the timing out.
type timingModel interface {
	trace.Consumer
	Result() (cpu.Result, error)
}

// RunFunctional executes the workload without a timing model (the trace is
// discarded).
func RunFunctional(spec RunSpec) (RunResult, error) {
	return RunEmitted(spec, trace.Discard{})
}

// RunEmitted executes the workload without a timing model, handing its
// instruction stream to c.
func RunEmitted(spec RunSpec, c trace.Consumer) (RunResult, error) {
	out, _, err := runFunctional(spec, c)
	return out, err
}

func runFunctional(spec RunSpec, c trace.Consumer) (RunResult, *pmem.Heap, error) {
	ops, keyRange, err := spec.opsAndRange()
	if err != nil {
		return RunResult{}, nil, err
	}
	as := vm.NewAddressSpace(spec.Seed ^ 0x5eed)
	return runWorkload(spec, ops, keyRange, as, c, nil, nil)
}

// runWorkload executes spec's benchmark on a fresh heap over as, with the
// given POT and translation hardware (nil for BASE and functional runs). It
// runs on the caller's goroutine and emits into an emitter that hands its
// chunks to c, flushing the last one before it returns, and it fills in the
// result's checksum, pool count, oid_direct statistics and instruction
// count.
func runWorkload(spec RunSpec, ops int, keyRange uint64, as *vm.AddressSpace, c trace.Consumer,
	potTable *pot.Table, tr *core.Translator) (RunResult, *pmem.Heap, error) {
	mode := emit.Base
	switch {
	case spec.Opt:
		mode = emit.Opt
	case spec.FixedMap:
		mode = emit.Fixed
	}
	em := emit.New(c, mode)
	defer em.Flush()
	if stack, err := as.Map(64 * 1024); err == nil {
		em.AttachStack(stack.Base, stack.Size)
	}
	var soft *emit.SoftTranslator
	if mode == emit.Base {
		var err error
		if soft, err = emit.NewSoftTranslator(em, as, 1024); err != nil {
			return RunResult{}, nil, err
		}
	}
	h, err := pmem.NewHeap(as, pmem.NewStore(), em, soft)
	if err != nil {
		return RunResult{}, nil, err
	}
	h.POT = potTable
	h.HW = tr
	if spec.FT {
		h.SetFTDefault(true)
	}
	out := RunResult{Spec: spec}
	if spec.Bench == TPCCBench {
		cfg := tpcc.SpecConfig(spec.Seed)
		if spec.TPCC {
			cfg = tpcc.TestConfig(spec.Seed)
		}
		place := tpcc.PlaceAll
		if spec.Pattern == workloads.Each {
			place = tpcc.PlaceEach
		}
		db, err := tpcc.NewDB(h, cfg, place)
		if err != nil {
			return RunResult{}, nil, err
		}
		if err := db.RunMix(ops); err != nil {
			return RunResult{}, nil, err
		}
		st := db.Stats()
		out.Checksum = st.Total()<<8 ^ st.Rollbacks
		out.Pools = h.OpenPools()
	} else {
		w, _ := workloads.ByAbbr(spec.Bench)
		env, err := workloads.NewEnv(h, workloads.Config{Pattern: spec.Pattern, Tx: spec.Tx, Seed: spec.Seed})
		if err != nil {
			return RunResult{}, nil, err
		}
		sum, err := w.Run(env, ops, keyRange)
		if err != nil {
			return RunResult{}, nil, err
		}
		out.Checksum = sum
		out.Pools = env.PoolsCreated()
	}
	out.CPU.Instructions = em.Count()
	if soft != nil {
		out.Soft = soft.Stats()
	}
	return out, h, nil
}
