// Package emit generates the dynamic instruction streams that the timing
// models consume.
//
// The persistent-memory library (internal/pmem) and the workloads execute
// functionally in Go; every operation they perform is mirrored, instruction
// by instruction, into a trace chunk through an Emitter. This is the same
// division of labour as the paper's methodology (§5.1), where Pin observes a
// functionally executing x86 binary and feeds a dynamic instruction stream
// to Sniper.
//
// The Emitter operates in one of two modes, mirroring the paper's library
// variants:
//
//   - Base: persistent accesses are compiled to the software-translation
//     sequence of Figure 3 (see SoftTranslator) followed by ordinary loads
//     and stores on the translated virtual address.
//   - Opt: persistent accesses are compiled to single nvld/nvst
//     instructions carrying the ObjectID.
//
// Program counters: only conditional branches need stable PCs (for the
// direction predictor), so each static branch site is identified by a label
// string hashed to a synthetic PC. Other instructions carry PC 0.
package emit

import (
	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/trace"
)

// Mode selects how persistent accesses are compiled.
type Mode int

const (
	// Base uses software ObjectID translation (paper's BASE).
	Base Mode = iota
	// Opt uses the nvld/nvst hardware (paper's OPT).
	Opt
	// Fixed models the Mnemosyne/NVHeaps-era alternative the paper's
	// introduction discusses: every pool is mapped at a fixed virtual
	// address in all processes, so programs use raw pointers — no
	// ObjectIDs, no translation, no relocation, and no ASLR for
	// persistent segments. It is the no-translation upper bound bought
	// at a security/composability cost.
	Fixed
)

func (m Mode) String() string {
	switch m {
	case Base:
		return "BASE"
	case Opt:
		return "OPT"
	case Fixed:
		return "FIXED"
	default:
		return "Mode?"
	}
}

// Emitter writes instructions into a chunk it owns, hands each full chunk
// to its consumer, and manages temporary registers.
type Emitter struct {
	out      trace.Consumer
	chunk    []isa.Instr // trace.ChunkSize entries, allocated at the first emit
	n        int         // instructions in chunk not yet handed over
	mode     Mode
	next     regCursor
	count    uint64
	paused   bool
	detached bool
	dropped  uint64

	// Stack-frame traffic: when attached, Compute interleaves loads and
	// stores to this region among its ALU work, so the emitted
	// instruction mix carries the ~25% memory-operation share of real
	// compiled code (spills, locals, call frames) instead of being pure
	// ALU. The region cycles like a hot stack: it stays L1-resident.
	stack stackCursor

	// persistObs, when set, observes every CLWB and SFence — even while
	// emission is paused, because durability is a property of the
	// simulated machine, not of the measured region.
	persistObs PersistObserver
}

// PersistObserver receives the durability-relevant instructions as they
// are issued. The persistent-memory heap registers itself here so its
// volatile write-back cache model (internal/nvmsim) tracks which lines a
// fence actually made durable.
type PersistObserver interface {
	// ObserveCLWB is called with the line-aligned virtual address of
	// every cache-line write-back.
	ObserveCLWB(va uint64)
	// ObserveSFence is called for every store fence.
	ObserveSFence()
}

// SetPersistObserver installs (or, with nil, removes) the observer.
func (e *Emitter) SetPersistObserver(o PersistObserver) { e.persistObs = o }

// New creates an Emitter in the given mode whose instructions go to out.
func New(out trace.Consumer, mode Mode) *Emitter {
	return &Emitter{out: out, mode: mode, next: tempLo}
}

// Temporary registers rotate through r16..r63; r1..r15 are reserved for
// callers that want long-lived values.
const (
	tempLo = 16
	tempHi = isa.NumRegs
)

// regCursor is the next temporary register to hand out.
type regCursor int

// take returns the cursor's register and advances it.
func (r *regCursor) take() isa.Reg {
	v := *r
	if *r++; *r == tempHi {
		*r = tempLo
	}
	return isa.Reg(v)
}

// stackCursor is the attached stack region and the offset of its next
// slot; a zero size means no stack is attached.
type stackCursor struct{ base, size, off uint64 }

// slot returns the next stack-frame address, cycling through the region
// line by line so frames stay hot in the L1.
func (s *stackCursor) slot() uint64 {
	va := s.base + s.off
	if s.off += 8; s.off >= s.size {
		s.off = 0
	}
	return va
}

// AttachStack gives the emitter a mapped region to place stack-frame
// traffic in (see the Emitter doc). Without it, Compute emits pure ALU.
func (e *Emitter) AttachStack(base, size uint64) {
	e.stack.base, e.stack.size = base, size&^7
}

// Mode returns the compilation mode.
func (e *Emitter) Mode() Mode { return e.mode }

// Count returns the number of instructions emitted so far.
func (e *Emitter) Count() uint64 { return e.count }

// Temp returns a fresh temporary register. Registers rotate, so values in
// temporaries are only valid across short instruction windows — which is all
// the timing models' dependency tracking needs.
func (e *Emitter) Temp() isa.Reg {
	if e.detached {
		return isa.Reg(tempLo)
	}
	return e.next.take()
}

// Pause suspends instruction emission: library calls still execute
// functionally but produce no trace. Used to exclude setup phases (e.g.
// TPC-C database population) from the measured region, the trace-driven
// analogue of fast-forwarding to a region of interest.
func (e *Emitter) Pause() { e.paused = true }

// Resume re-enables emission after Pause.
func (e *Emitter) Resume() { e.paused = false }

// Detach permanently turns the emitter into a no-op shell: no instruction
// is recorded, counted, or handed to the consumer, and Temp stops rotating
// registers so the emitter carries no mutable state on the emission path.
// Persist observation (CLWB/SFence) still fires — durability is a property
// of the simulated machine, not of the trace.
//
// Detach exists for concurrent heaps: an instruction stream is a
// single-threaded notion (the golden-number tests depend on bit-exact
// ordering), so a heap serving multiple goroutines detaches its emitter and
// keeps only the persistence-domain events. There is no re-attach.
func (e *Emitter) Detach() { e.detached = true }

// Detached reports whether the emitter has been detached.
func (e *Emitter) Detached() bool { return e.detached }

// Dropped returns the number of instructions suppressed while paused.
//
//potlint:allow unusedexport kept for TestPauseSuppressesEmission and TestPopulationIsConsistent
func (e *Emitter) Dropped() uint64 { return e.dropped }

// emit writes one instruction into the chunk, field by field, and hands the
// chunk to the consumer the moment it holds trace.ChunkSize instructions —
// before control returns to the workload, so the consumer always sees the
// simulator state of exactly that point in the run.
//
//potlint:noalloc
func (e *Emitter) emit(op isa.Op, dst, src1, src2 isa.Reg, addr, pc uint64, size uint8, taken bool) {
	if e.detached {
		return
	}
	if e.paused {
		e.dropped++
		return
	}
	e.count++
	if e.chunk == nil {
		e.chunk = make([]isa.Instr, trace.ChunkSize) //potlint:allow noalloc once per emitter, at its first instruction; every later chunk reuses it
	}
	in := &e.chunk[e.n]
	in.Addr, in.PC = addr, pc
	in.Op, in.Dst, in.Src1, in.Src2, in.Size, in.Taken = op, dst, src1, src2, size, taken
	e.n++
	if e.n == len(e.chunk) {
		e.Flush()
	}
}

// Flush hands the instructions emitted since the last hand-off to the
// consumer. The emitter does so by itself every trace.ChunkSize
// instructions; the owner calls Flush once at the end of the run.
func (e *Emitter) Flush() {
	if e.n == 0 {
		return
	}
	e.out.Consume(e.chunk[:e.n])
	e.n = 0
}

// Nop emits a pipeline bubble.
//
//potlint:allow unusedexport kept for TestEmitPrimitives
func (e *Emitter) Nop() { e.emit(isa.Nop, 0, 0, 0, 0, 0, 0, false) }

// ALU emits a single-cycle integer op dst = f(src1, src2).
func (e *Emitter) ALU(dst, src1, src2 isa.Reg) {
	e.emit(isa.ALU, dst, src1, src2, 0, 0, 0, false)
}

// Mul emits a 3-cycle multiply.
func (e *Emitter) Mul(dst, src1, src2 isa.Reg) {
	e.emit(isa.Mul, dst, src1, src2, 0, 0, 0, false)
}

// Div emits a 20-cycle divide.
func (e *Emitter) Div(dst, src1, src2 isa.Reg) {
	e.emit(isa.Div, dst, src1, src2, 0, 0, 0, false)
}

// Branch emits a conditional branch. The label identifies the static branch
// site (hashed to a stable synthetic PC); taken is the resolved direction.
func (e *Emitter) Branch(label string, taken bool, deps ...isa.Reg) {
	var src1, src2 isa.Reg
	if len(deps) > 0 {
		src1 = deps[0]
	}
	if len(deps) > 1 {
		src2 = deps[1]
	}
	e.emit(isa.Branch, 0, src1, src2, 0, labelPC(label), 0, taken)
}

// Jump emits an unconditional direct jump/call/return (predicted, free
// beyond its slot).
func (e *Emitter) Jump() { e.emit(isa.Jump, 0, 0, 0, 0, 0, 0, false) }

// Load emits a load of size bytes at virtual address va into dst. addrReg
// (may be RZ) is the register the address was computed from, establishing
// the dependency for pointer chasing.
func (e *Emitter) Load(dst isa.Reg, addrReg isa.Reg, va uint64, size uint8) {
	e.emit(isa.Load, dst, addrReg, 0, va, 0, size, false)
}

// Store emits a store of size bytes of register data at virtual address va.
func (e *Emitter) Store(addrReg isa.Reg, va uint64, size uint8, data isa.Reg) {
	e.emit(isa.Store, 0, addrReg, data, va, 0, size, false)
}

// NVLoad emits the paper's nvld: dst = MEM[Lookup(oid)+0].
func (e *Emitter) NVLoad(dst isa.Reg, oidReg isa.Reg, o oid.OID, size uint8) {
	e.emit(isa.NVLoad, dst, oidReg, 0, uint64(o), 0, size, false)
}

// NVStore emits the paper's nvst: MEM[Lookup(oid)+0] = data.
func (e *Emitter) NVStore(oidReg isa.Reg, o oid.OID, size uint8, data isa.Reg) {
	e.emit(isa.NVStore, 0, oidReg, data, uint64(o), 0, size, false)
}

// CLWB emits a cache-line write-back of the line containing va.
func (e *Emitter) CLWB(va uint64) {
	if e.persistObs != nil {
		e.persistObs.ObserveCLWB(va &^ 63)
	}
	e.emit(isa.CLWB, 0, 0, 0, va&^63, 0, 64, false)
}

// SFence emits a store fence.
func (e *Emitter) SFence() {
	if e.persistObs != nil {
		e.persistObs.ObserveSFence()
	}
	e.emit(isa.SFence, 0, 0, 0, 0, 0, 0, false)
}

// computeILP is the instruction-level parallelism of emitted straight-line
// bookkeeping code: Compute arranges its instructions as this many
// independent dependency chains that join at the end, matching the ILP a
// compiler typically exposes in address arithmetic and call-frame code. An
// in-order single-issue core still spends one cycle per instruction; an
// out-of-order core overlaps the chains — which is exactly why the paper's
// out-of-order baseline hides part of the software-translation cost (§6.1).
const computeILP = 3

// Compute emits n single-cycle ALU instructions seeded by the given
// sources, structured as computeILP parallel chains with a final join, and
// returns the register holding the final value. With a stack attached,
// some of the chain steps are frame reloads and spills instead.
//
// When the whole block fits in the current chunk, computeBlock writes it
// there in one pass; otherwise (paused, before the first emission, or
// across a hand-off) computeEach emits it one instruction at a time. Both
// produce the same instructions and hand the chunk over at the same
// instruction (TestComputeBlockMatchesEach).
func (e *Emitter) Compute(n int, srcs ...isa.Reg) isa.Reg {
	if e.detached {
		return isa.RZ
	}
	if n <= 0 {
		if len(srcs) > 0 {
			return srcs[0]
		}
		return isa.RZ
	}
	var s1, s2 isa.Reg
	if len(srcs) > 0 {
		s1 = srcs[0]
	}
	if len(srcs) > 1 {
		s2 = srcs[1]
	}
	if !e.paused && e.chunk != nil && n <= len(e.chunk)-e.n {
		return e.computeBlock(n, s1, s2)
	}
	return e.computeEach(n, s1, s2)
}

// computeEach is Compute's general path: it emits the block of n ≥ 1
// instructions one at a time.
func (e *Emitter) computeEach(n int, s1, s2 isa.Reg) isa.Reg {
	if n <= 2 {
		dst := e.Temp()
		e.ALU(dst, s1, s2)
		for i := 1; i < n; i++ {
			nd := e.Temp()
			e.ALU(nd, dst, isa.RZ)
			dst = nd
		}
		return dst
	}
	// Parallel chains, then join them pairwise.
	chains := computeILP
	if chains > n-1 {
		chains = n - 1
	}
	var headsArr [computeILP]isa.Reg
	heads := headsArr[:chains]
	for i := range heads {
		heads[i] = e.Temp()
		e.ALU(heads[i], s1, s2)
	}
	emitted := chains
	for i := 0; emitted < n-(chains-1); i++ {
		c := i % chains
		nd := e.Temp()
		switch {
		case e.stack.size > 0 && i%4 == 3:
			// A reload from the frame (dependent like any ALU op).
			e.Load(nd, heads[c], e.stack.slot(), 8)
		case e.stack.size > 0 && i%8 == 6 && emitted+2 <= n-(chains-1):
			// A spill to the frame; the chain continues through an
			// ALU op so the value keeps flowing. Two instructions,
			// two budget slots.
			e.Store(isa.RZ, e.stack.slot(), 8, heads[c])
			emitted++
			e.ALU(nd, heads[c], isa.RZ)
		default:
			e.ALU(nd, heads[c], isa.RZ)
		}
		heads[c] = nd
		emitted++
	}
	// Join.
	dst := heads[0]
	for c := 1; c < chains && emitted < n; c++ {
		nd := e.Temp()
		e.ALU(nd, dst, heads[c])
		dst = nd
		emitted++
	}
	for ; emitted < n; emitted++ {
		nd := e.Temp()
		e.ALU(nd, dst, isa.RZ)
		dst = nd
	}
	return dst
}

// computeBlock is computeEach for a block that fits in the current chunk:
// it writes the block straight into the chunk, keeps the register and
// stack cursors in locals and steps the chain index without a division,
// then hands the chunk over if the block filled it, as emit would have
// after its last instruction.
//
//potlint:noalloc
func (e *Emitter) computeBlock(n int, s1, s2 isa.Reg) isa.Reg {
	blk := e.chunk[e.n : e.n+n]
	reg, st := e.next, e.stack
	var dst isa.Reg
	if n <= 2 {
		dst = reg.take()
		blk[0] = isa.Instr{Op: isa.ALU, Dst: dst, Src1: s1, Src2: s2}
		if n == 2 {
			nd := reg.take()
			blk[1] = isa.Instr{Op: isa.ALU, Dst: nd, Src1: dst}
			dst = nd
		}
	} else {
		chains := min(computeILP, n-1)
		var heads [computeILP]isa.Reg
		for c := range chains {
			heads[c] = reg.take()
			blk[c] = isa.Instr{Op: isa.ALU, Dst: heads[c], Src1: s1, Src2: s2}
		}
		k, budget, stack := chains, n-(chains-1), st.size > 0
		for i, c := 0, 0; k < budget; i++ {
			nd, h := reg.take(), heads[c]
			switch {
			case stack && i&3 == 3:
				blk[k] = isa.Instr{Addr: st.slot(), Op: isa.Load, Dst: nd, Src1: h, Size: 8}
			case stack && i&7 == 6 && k+2 <= budget:
				blk[k] = isa.Instr{Addr: st.slot(), Op: isa.Store, Src2: h, Size: 8}
				k++
				blk[k] = isa.Instr{Op: isa.ALU, Dst: nd, Src1: h}
			default:
				blk[k] = isa.Instr{Op: isa.ALU, Dst: nd, Src1: h}
			}
			heads[c] = nd
			k++
			if c++; c == chains {
				c = 0
			}
		}
		dst = heads[0]
		for c := 1; c < chains && k < n; c++ {
			nd := reg.take()
			blk[k] = isa.Instr{Op: isa.ALU, Dst: nd, Src1: dst, Src2: heads[c]}
			dst = nd
			k++
		}
		for ; k < n; k++ {
			nd := reg.take()
			blk[k] = isa.Instr{Op: isa.ALU, Dst: nd, Src1: dst}
			dst = nd
		}
	}
	e.next, e.stack.off = reg, st.off
	e.count += uint64(n)
	if e.n += n; e.n == len(e.chunk) {
		e.Flush()
	}
	return dst
}

// labelPC hashes a static-branch label to a stable synthetic PC (FNV-1a,
// computed inline so per-branch emission does not allocate).
func labelPC(label string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return h &^ 3
}
