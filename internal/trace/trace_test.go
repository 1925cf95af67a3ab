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
	if s.Loads() != 2 {
		t.Errorf("Loads = %d", s.Loads())
	}
	if s.Stores() != 3 {
		t.Errorf("Stores = %d", s.Stores())
	}
	if s.Persistent() != 2 {
		t.Errorf("Persistent = %d", s.Persistent())
	}
	var other Stats
	other.Record(&isa.Instr{Op: isa.Mul})
	s.Add(other)
	if s.Total != 7 {
		t.Errorf("Total after Add = %d", s.Total)
	}
	if s.String() == "" {
		t.Error("String must render")
	}
}
