package trace

import (
	"fmt"
	"strings"

	"potgo/internal/isa"
)

// Stats accumulates dynamic instruction-mix statistics for a trace. A
// consumer counts ByOp, and Taken for each conditional branch, as it goes,
// and calls Tally to bring Total and Branches up to date.
type Stats struct {
	// ByOp counts dynamic instructions per class.
	ByOp [16]uint64
	// Total is the dynamic instruction count.
	Total uint64
	// Branches and Taken count conditional branches and how many were
	// taken.
	Branches, Taken uint64
}

// Tally derives Total and Branches from ByOp.
func (s *Stats) Tally() {
	s.Total = 0
	for _, n := range s.ByOp {
		s.Total += n
	}
	s.Branches = s.ByOp[isa.Branch]
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
