package cpu

import (
	"fmt"

	"potgo/internal/core"
	"potgo/internal/mem"
	"potgo/internal/polb"
	"potgo/internal/trace"
)

// Result is the outcome of one timing run.
type Result struct {
	// Cycles is the total execution time (commit of the last
	// instruction).
	Cycles uint64
	// Instructions is the dynamic instruction count.
	Instructions uint64
	// Mix is the dynamic instruction mix.
	Mix trace.Stats
	// BranchLookups / Mispredicts summarize the direction predictor.
	BranchLookups, Mispredicts uint64
	// MemStallCycles is the sum of memory latencies beyond an L1 hit,
	// a coarse indicator of where time went.
	MemStallCycles uint64
	// TransStallCycles is the sum of hardware-translation latencies
	// (POLB access + POT walks) charged to nvld/nvst.
	TransStallCycles uint64
	// BranchStallCycles is the total branch-misprediction redirect cost.
	BranchStallCycles uint64
	// ROBStallCycles, LQStallCycles and SQStallCycles attribute
	// out-of-order dispatch delay to window occupancy: cycles dispatch
	// waited for a ROB / load-queue / store-queue entry to free beyond
	// every other constraint already accounted. Zero for the in-order
	// model. Attribution is approximate when stalls overlap (the binding
	// constraint is charged).
	ROBStallCycles, LQStallCycles, SQStallCycles uint64
	// Mem snapshots hierarchy counters.
	Mem mem.Stats
	// Translation and POLB snapshot the hardware translation counters
	// (zero-valued for BASE runs).
	Translation core.Stats
	POLB        polb.Stats
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// MispredictRate returns mispredicted branches / predicted branches.
func (r Result) MispredictRate() float64 {
	if r.BranchLookups == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.BranchLookups)
}

// Stack is a coarse cycle attribution ("CPI stack"): where the run's cycles
// went. Compute is everything not attributed to the other three buckets
// (issue slots, execution latencies, load-use and fence stalls).
type Stack struct {
	Compute     uint64
	Branch      uint64
	Memory      uint64
	Translation uint64
}

// CPIStack attributes the run's cycles. The memory and translation buckets
// are the stall sums the models charge directly; branch is the mispredict
// redirect total; compute is the remainder. For the out-of-order model the
// attribution is approximate (overlapped stalls are counted where charged).
func (r Result) CPIStack() Stack {
	s := Stack{
		Branch:      r.BranchStallCycles,
		Memory:      r.MemStallCycles,
		Translation: r.TransStallCycles,
	}
	attributed := s.Branch + s.Memory + s.Translation
	if r.Cycles > attributed {
		s.Compute = r.Cycles - attributed
	}
	return s
}

func (r Result) String() string {
	return fmt.Sprintf("cycles=%d insns=%d IPC=%.3f mispredict=%.2f%% polbMiss=%.2f%%",
		r.Cycles, r.Instructions, r.IPC(), 100*r.MispredictRate(), 100*r.POLB.MissRate())
}

// finish fills in the counters both models derive the same way: the
// instruction count from the mix, the predictor's, and the machine's.
func (r *Result) finish(m *Machine, p *predictor) {
	r.Instructions = r.Mix.Total
	r.BranchLookups, r.Mispredicts = p.lookups, p.mispredicts
	r.Mem = m.Hier.Stats()
	if m.Translator != nil {
		r.Translation = m.Translator.Stats()
		r.POLB = m.Translator.POLB().Stats()
	}
}
