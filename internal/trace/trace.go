// Package trace carries dynamic instruction streams from the code emitter to
// the timing models.
//
// A full trace for one experiment can run to tens of millions of
// instructions, so streams are chunked: the producer (a functionally
// executing workload, through its emit.Emitter) fills a fixed-size slice of
// instructions in place and, every ChunkSize instructions and once at the
// end, hands the whole slice to a Consumer (a CPU timing model) on its own
// goroutine. The hand-off is a plain call: there is no channel, memory stays
// bounded to one chunk regardless of trace length, and the consumer runs
// while the producer is suspended at a fixed point, so the two never touch
// shared simulator state at the same time.
package trace

import (
	"potgo/internal/isa"
)

// ChunkSize is the number of instructions per chunk hand-off.
const ChunkSize = 1 << 14

// Consumer receives the instruction stream one chunk at a time. The chunk
// is only valid during the call: the producer refills it afterwards.
type Consumer interface {
	Consume(chunk []isa.Instr)
}

// Discard is a Consumer that drops every instruction. It is used when a
// workload is executed purely functionally (e.g. to warm a heap or verify
// behaviour) with no timing run attached.
type Discard struct{}

// Consume implements Consumer.
func (Discard) Consume([]isa.Instr) {}

// Buffer is a Consumer that materializes the whole trace in memory.
// Intended for tests and small runs.
type Buffer struct {
	Instrs []isa.Instr
}

// Consume implements Consumer.
func (b *Buffer) Consume(chunk []isa.Instr) { b.Instrs = append(b.Instrs, chunk...) }
