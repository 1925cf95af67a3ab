package cpu

import (
	"testing"

	"potgo/internal/mem"
	"potgo/internal/trace"
)

// benchConsume times the model build makes on a seeded mixed trace chunk
// (every instruction class, nvld/nvst through a Pipelined POLB) and reports
// host nanoseconds per simulated instruction. The model keeps its state
// across iterations, so after the first chunk caches, TLB, POLB and
// predictor are warm.
func benchConsume(b *testing.B, build func(Config, *Machine) timingModel) {
	m, chunk := propMachine(b, mem.DefaultConfig(), randomTrace(1, trace.ChunkSize, 0))
	c := build(DefaultConfig(), m)
	c.Consume(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c.Consume(chunk)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(chunk)), "ns/insn")
	if _, err := c.Result(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkOutOfOrderConsume(b *testing.B) {
	benchConsume(b, func(c Config, m *Machine) timingModel { return NewOutOfOrder(c, m) })
}

func BenchmarkInOrderConsume(b *testing.B) {
	benchConsume(b, func(c Config, m *Machine) timingModel { return NewInOrder(c, m) })
}
