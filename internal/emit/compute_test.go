package emit

import (
	"math/rand"
	"slices"
	"testing"

	"potgo/internal/isa"
	"potgo/internal/trace"
)

// handOffs is a trace.Consumer that keeps a copy of every chunk it is
// handed, so two emitters can be compared on where they hand over as well
// as on what.
type handOffs struct{ chunks [][]isa.Instr }

func (h *handOffs) Consume(chunk []isa.Instr) { h.chunks = append(h.chunks, slices.Clone(chunk)) }

// twins are two emitters in the same state, one of which (fast) computes
// through Compute and the other (each) through computeEach alone.
type twins struct {
	fast, each       *Emitter
	fastOut, eachOut handOffs
	blocks           int // Compute calls eligible for computeBlock
	checked          int // hand-offs already compared
}

func newTwins(stack bool) *twins {
	tw := &twins{}
	tw.fast, tw.each = New(&tw.fastOut, Base), New(&tw.eachOut, Base)
	if stack {
		tw.fast.AttachStack(0x7000_0000, 200) // not a multiple of 8: AttachStack rounds
		tw.each.AttachStack(0x7000_0000, 200)
	}
	return tw
}

func (tw *twins) alu(k int) {
	for range k {
		tw.fast.ALU(tw.fast.Temp(), 1, 2)
		tw.each.ALU(tw.each.Temp(), 1, 2)
	}
}

func (tw *twins) compute(t *testing.T, n int, srcs []isa.Reg) {
	t.Helper()
	f, e := tw.fast, tw.each
	if !f.paused && f.chunk != nil && n <= len(f.chunk)-f.n {
		tw.blocks++
	}
	var s1, s2 isa.Reg
	if len(srcs) > 0 {
		s1 = srcs[0]
	}
	if len(srcs) > 1 {
		s2 = srcs[1]
	}
	got, want := f.Compute(n, srcs...), e.computeEach(n, s1, s2)
	if got != want {
		t.Fatalf("Compute(%d, %v) returns r%d, computeEach r%d", n, srcs, got, want)
	}
	tw.check(t, "after Compute")
}

// check compares everything an emitter carries from one call to the next
// and the chunks handed over so far.
func (tw *twins) check(t *testing.T, when string) {
	t.Helper()
	f, e := tw.fast, tw.each
	if f.next != e.next || f.stack != e.stack || f.count != e.count || f.n != e.n || f.dropped != e.dropped {
		t.Fatalf("%s: state (next %d, stack %+v, count %d, n %d, dropped %d), want (%d, %+v, %d, %d, %d)",
			when, f.next, f.stack, f.count, f.n, f.dropped, e.next, e.stack, e.count, e.n, e.dropped)
	}
	if len(tw.fastOut.chunks) != len(tw.eachOut.chunks) {
		t.Fatalf("%s: %d hand-offs, want %d", when, len(tw.fastOut.chunks), len(tw.eachOut.chunks))
	}
	if f.chunk != nil && !slices.Equal(f.chunk[:f.n], e.chunk[:e.n]) {
		t.Fatalf("%s: pending instructions differ", when)
	}
	for ; tw.checked < len(tw.fastOut.chunks); tw.checked++ {
		if !slices.Equal(tw.fastOut.chunks[tw.checked], tw.eachOut.chunks[tw.checked]) {
			t.Fatalf("%s: hand-off %d differs", when, tw.checked)
		}
	}
}

// TestComputeBlockMatchesEach holds Compute — which writes a block that
// fits in the chunk straight into it — to the per-instruction path on twin
// emitters: the same instructions, registers, stack slots, counts and
// hand-off points, for random sizes and sources, with and without a stack,
// paused, at the first emission, and for blocks that end exactly on the
// chunk boundary, just short of it or across it.
func TestComputeBlockMatchesEach(t *testing.T) {
	srcSets := [][]isa.Reg{nil, {3}, {3, 9}, {isa.RZ, 5}}
	for _, stack := range []bool{false, true} {
		// Blocks placed against the chunk boundary, the first of them at
		// an emitter's first emission.
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 61, trace.ChunkSize - 1, trace.ChunkSize, trace.ChunkSize + 1} {
			for _, d := range []int{-1, 0, 1} {
				tw := newTwins(stack)
				tw.compute(t, n, srcSets[2])
				room := trace.ChunkSize - tw.fast.n
				tw.alu((room - n + d + 2*trace.ChunkSize) % trace.ChunkSize)
				tw.compute(t, n, srcSets[1])
				tw.fast.Flush()
				tw.each.Flush()
				tw.check(t, "after the boundary block")
			}
		}
		// Random sequences of blocks, single instructions and pauses.
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tw := newTwins(stack)
			for step := 0; step < 3000; step++ {
				switch r := rng.Intn(20); {
				case r == 0:
					tw.fast.Pause()
					tw.each.Pause()
				case r == 1:
					tw.fast.Resume()
					tw.each.Resume()
				case r < 5:
					tw.alu(rng.Intn(200))
				case r == 5:
					tw.compute(t, 1+rng.Intn(3*trace.ChunkSize/2), srcSets[rng.Intn(len(srcSets))])
				default:
					tw.compute(t, 1+rng.Intn(60), srcSets[rng.Intn(len(srcSets))])
				}
			}
			tw.fast.Flush()
			tw.each.Flush()
			tw.check(t, "at the end")
			if tw.blocks < 500 {
				t.Errorf("seed %d: only %d of the blocks took the in-chunk path", seed, tw.blocks)
			}
		}
	}
}

// BenchmarkCompute times Compute on a stack-attached BASE emitter handing
// its chunks to trace.Discard, over block sizes 1..40, and reports host
// nanoseconds per emitted instruction.
func BenchmarkCompute(b *testing.B) {
	e := New(trace.Discard{}, Base)
	e.AttachStack(0x7000_0000, 4096)
	e.Compute(40, 3) // allocates the chunk
	start := e.Count()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		e.Compute(1+i%40, 3, 4)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Count()-start), "ns/insn")
}
