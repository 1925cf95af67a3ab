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
	s.Record(&isa.Instr{Op: isa.Load})
	s.Record(&isa.Instr{Op: isa.NVLoad})
	s.Record(&isa.Instr{Op: isa.Store})
	s.Record(&isa.Instr{Op: isa.NVStore})
	s.Record(&isa.Instr{Op: isa.CLWB})
	s.Record(&isa.Instr{Op: isa.ALU})
	for _, op := range []isa.Op{isa.Load, isa.NVLoad, isa.Store, isa.NVStore, isa.CLWB, isa.ALU} {
		if s.ByOp[op] != 1 {
			t.Errorf("ByOp[%s] = %d", op, s.ByOp[op])
		}
	}
	if s.Total != 6 {
		t.Errorf("Total = %d", s.Total)
	}
	if s.String() == "" {
		t.Error("String must render")
	}
}
