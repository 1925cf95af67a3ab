package emit

import (
	"testing"

	"potgo/internal/trace"
)

func TestPauseSuppressesEmission(t *testing.T) {
	var buf trace.Buffer
	e := New(&buf, Opt)
	e.ALU(1, 2, 3)
	e.Pause()
	if !e.Paused() {
		t.Error("Paused must report true")
	}
	e.ALU(1, 2, 3)
	e.Load(1, 2, 0x1000, 8)
	e.Resume()
	if e.Paused() {
		t.Error("Resume must clear paused")
	}
	e.ALU(1, 2, 3)
	e.Flush()
	if len(buf.Instrs) != 2 {
		t.Errorf("buffered %d instructions, want 2", len(buf.Instrs))
	}
	if e.Count() != 2 {
		t.Errorf("Count = %d, want 2 (paused instructions not counted)", e.Count())
	}
	if e.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", e.Dropped())
	}
}
