package cpu

import (
	"testing"

	"potgo/internal/emit"
	"potgo/internal/isa"
	"potgo/internal/mem"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

// TestHotPathAllocs gates the simulator's per-instruction path at zero
// allocations: a model consuming a full chunk, an emitter filling a chunk
// and handing it to the model, and Compute blocks filling chunks through a
// stack-attached emitter.
func TestHotPathAllocs(t *testing.T) {
	newModel := map[string]func(Config, *Machine) timingModel{
		"inorder": func(c Config, m *Machine) timingModel { return NewInOrder(c, m) },
		"ooo":     func(c Config, m *Machine) timingModel { return NewOutOfOrder(c, m) },
	}
	for name, build := range newModel {
		t.Run(name, func(t *testing.T) {
			as := vm.NewAddressSpace(3)
			r, err := as.Map(1 << 16)
			if err != nil {
				t.Fatal(err)
			}
			chunk := randomTrace(1, trace.ChunkSize, 0)
			for i := range chunk {
				in := &chunk[i]
				switch in.Op { // no translator here: nvld/nvst become ld/st
				case isa.NVLoad:
					in.Op = isa.Load
				case isa.NVStore:
					in.Op = isa.Store
				}
				if in.Op.IsMem() {
					in.Addr = r.Base + in.Addr&0xffff
				}
			}
			c := build(DefaultConfig(), &Machine{Hier: mem.New(mem.DefaultConfig(), as)})
			c.Consume(chunk) // warm the page table and TLB
			if n := testing.AllocsPerRun(10, func() { c.Consume(chunk) }); n != 0 {
				t.Errorf("Consume of a %d-instruction chunk allocates %.1f times", len(chunk), n)
			}

			em := emit.New(c, emit.Opt)
			emitChunk := func() {
				for i := range chunk {
					if in := &chunk[i]; in.Op == isa.Load {
						em.Load(in.Dst, in.Src1, in.Addr, in.Size)
					} else {
						em.ALU(in.Dst, in.Src1, in.Src2)
					}
				}
			}
			emitChunk() // allocates the emitter's chunk
			if n := testing.AllocsPerRun(10, emitChunk); n != 0 {
				t.Errorf("%d emits into a chunk-owning emitter allocate %.1f times", len(chunk), n)
			}

			blocks := emit.New(c, emit.Base)
			blocks.AttachStack(r.Base, 4096)
			computeFill := func() {
				for n := 0; n < trace.ChunkSize; n += 1 + n%41 {
					blocks.Compute(1+n%41, 3, 4)
				}
			}
			computeFill() // allocates the emitter's chunk
			if n := testing.AllocsPerRun(10, computeFill); n != 0 {
				t.Errorf("a chunk of Compute blocks allocates %.1f times", n)
			}
			if _, err := c.Result(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
