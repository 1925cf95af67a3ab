package trace

import (
	"fmt"
	"strings"

	"potgo/internal/isa"
)

// Stats accumulates dynamic instruction-mix statistics for a trace.
type Stats struct {
	// ByOp counts dynamic instructions per class.
	ByOp [16]uint64
	// Total is the dynamic instruction count.
	Total uint64
	// Branches and Taken count conditional branches and how many were
	// taken.
	Branches, Taken uint64
}

// Record accounts for one instruction.
func (s *Stats) Record(in *isa.Instr) {
	s.Total++
	s.ByOp[in.Op]++
	if in.Op == isa.Branch {
		s.Branches++
		if in.Taken {
			s.Taken++
		}
	}
}

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	for i := range s.ByOp {
		s.ByOp[i] += other.ByOp[i]
	}
	s.Total += other.Total
	s.Branches += other.Branches
	s.Taken += other.Taken
}

// Loads returns the dynamic count of load-class instructions (ld + nvld).
func (s *Stats) Loads() uint64 {
	return s.ByOp[isa.Load] + s.ByOp[isa.NVLoad]
}

// Stores returns the dynamic count of store-class instructions
// (st + nvst + clwb).
func (s *Stats) Stores() uint64 {
	return s.ByOp[isa.Store] + s.ByOp[isa.NVStore] + s.ByOp[isa.CLWB]
}

// Persistent returns the dynamic count of ObjectID-addressed accesses.
func (s *Stats) Persistent() uint64 {
	return s.ByOp[isa.NVLoad] + s.ByOp[isa.NVStore]
}

// String renders the instruction mix.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d", s.Total)
	for op := isa.Op(0); op < 12; op++ {
		if s.ByOp[op] > 0 {
			fmt.Fprintf(&b, " %s=%d", op, s.ByOp[op])
		}
	}
	return b.String()
}
