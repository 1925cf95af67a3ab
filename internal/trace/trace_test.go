package trace

import (
	"testing"

	"potgo/internal/isa"
)

func TestBufferRoundTrip(t *testing.T) {
	var b Buffer
	chunk := make([]isa.Instr, 0, 7)
	for i := 0; i < 100; i++ {
		chunk = append(chunk, isa.Instr{Op: isa.ALU, PC: uint64(i)})
		if len(chunk) == cap(chunk) {
			b.Consume(chunk)
			chunk = chunk[:0] // the producer refills the chunk it handed over
		}
	}
	b.Consume(chunk)
	if len(b.Instrs) != 100 {
		t.Fatalf("buffered %d instructions, want 100", len(b.Instrs))
	}
	for i, in := range b.Instrs {
		if in.PC != uint64(i) {
			t.Fatalf("instruction %d has PC %d", i, in.PC)
		}
	}
}

func TestDiscard(t *testing.T) {
	var d Discard
	d.Consume([]isa.Instr{{Op: isa.Load}}) // must not panic
}

func TestStatsAccumulation(t *testing.T) {
	var s Stats
	for _, op := range []isa.Op{isa.Load, isa.NVLoad, isa.Store, isa.NVStore, isa.CLWB, isa.ALU, isa.Branch, isa.Branch} {
		s.ByOp[op]++
	}
	s.Taken++
	s.Tally()
	for _, op := range []isa.Op{isa.Load, isa.NVLoad, isa.Store, isa.NVStore, isa.CLWB, isa.ALU} {
		if s.ByOp[op] != 1 {
			t.Errorf("ByOp[%s] = %d", op, s.ByOp[op])
		}
	}
	if s.Total != 8 || s.Branches != 2 || s.Taken != 1 {
		t.Errorf("Total, Branches, Taken = %d, %d, %d; want 8, 2, 1", s.Total, s.Branches, s.Taken)
	}
	if s.Tally(); s.Total != 8 {
		t.Errorf("a second Tally moved Total to %d", s.Total)
	}
	if s.String() == "" {
		t.Error("String must render")
	}
}
