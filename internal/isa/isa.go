// Package isa defines the simulated instruction set consumed by the timing
// models in internal/cpu.
//
// The machine is a load/store architecture in the spirit of the paper's
// Table 3: ordinary loads and stores operate on virtual addresses, while the
// two new instructions nvld and nvst operate directly on persistent
// ObjectIDs and are translated by the POLB/POT hardware. Traces are dynamic:
// every instruction carries its resolved memory address (or ObjectID) and,
// for branches, its resolved direction, exactly as a Pin-produced stream
// feeding Sniper would.
package isa

import "fmt"

// Op enumerates instruction classes. The timing models only need classes,
// operand registers and resolved addresses, not full semantics: functional
// execution happens in the persistent-memory library, which emits these
// instructions as a side effect.
type Op uint8

const (
	// Nop does nothing but still occupies pipeline slots.
	Nop Op = iota
	// ALU is a single-cycle integer operation (add, sub, logic, compare,
	// shifts, address arithmetic).
	ALU
	// Mul is a 3-cycle integer multiply (used by hash computations).
	Mul
	// Div is a 20-cycle integer divide/modulo (used by RANDOM pool
	// selection and TPC-C arithmetic).
	Div
	// Branch is a conditional branch with a resolved direction in Taken.
	Branch
	// Jump is an unconditional direct jump/call/return; always taken and
	// assumed correctly predicted (BTB hit).
	Jump
	// Load reads Size bytes from virtual address Addr into Dst.
	Load
	// Store writes Size bytes from Src2 to virtual address Addr.
	Store
	// NVLoad is the paper's nvld: rd = MEM[Lookup(rs1)+imm]. Addr holds
	// the fully-resolved ObjectID (pool ‖ offset) being dereferenced.
	NVLoad
	// NVStore is the paper's nvst: MEM[Lookup(rs2)+imm] = rs1. Addr holds
	// the resolved ObjectID.
	NVStore
	// CLWB writes a cache line back to persistent memory. Addr is the
	// virtual address of the line. Modelled at a fixed latency (paper
	// §5.1: 100 cycles).
	CLWB
	// SFence orders stores/CLWBs: it cannot retire until all prior
	// stores and CLWBs have completed.
	SFence
	opCount
)

var opNames = [...]string{
	Nop:     "nop",
	ALU:     "alu",
	Mul:     "mul",
	Div:     "div",
	Branch:  "br",
	Jump:    "jmp",
	Load:    "ld",
	Store:   "st",
	NVLoad:  "nvld",
	NVStore: "nvst",
	CLWB:    "clwb",
	SFence:  "sfence",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the instruction accesses the data memory hierarchy.
func (o Op) IsMem() bool {
	switch o {
	case Load, Store, NVLoad, NVStore, CLWB:
		return true
	}
	return false
}

// IsLoad reports whether the instruction reads data memory.
func (o Op) IsLoad() bool { return o == Load || o == NVLoad }

// IsStore reports whether the instruction writes data memory (CLWB occupies
// the store path as well).
func (o Op) IsStore() bool { return o == Store || o == NVStore || o == CLWB }

// IsPersistent reports whether the instruction addresses memory through an
// ObjectID and therefore engages the POLB/POT hardware.
//
//potlint:allow unusedexport kept for TestOpClassification
func (o Op) IsPersistent() bool { return o == NVLoad || o == NVStore }

// Reg names an architectural register in the emitted code. Register 0 (RZ)
// is the hard-wired zero/none register: as a source it means "no
// dependency", and as a destination it discards the result.
type Reg uint8

// RZ is the zero register.
const RZ Reg = 0

// NumRegs is the size of the architectural register file visible to the
// emitter (and therefore to dependency tracking in the timing models).
const NumRegs = 64

// Instr is one dynamic instruction. The struct is kept small because traces
// run to tens of millions of instructions.
type Instr struct {
	// Addr is the resolved effective virtual address for Load/Store/CLWB,
	// the resolved ObjectID for NVLoad/NVStore, and unused otherwise.
	Addr uint64
	// PC is the (synthetic) program counter of the instruction, used by
	// the branch predictor and instruction-fetch modelling.
	PC uint64
	// Op is the instruction class.
	Op Op
	// Dst is the destination register (RZ if none).
	Dst Reg
	// Src1 and Src2 are source registers (RZ if absent). For stores,
	// Src1 is the address base and Src2 the data.
	Src1, Src2 Reg
	// Size is the memory access width in bytes.
	Size uint8
	// Taken is the resolved direction for Branch.
	Taken bool
}

// ExecLatency returns the execution (non-memory) latency in cycles for the
// instruction class. Memory latency is computed separately by the hierarchy.
func (o Op) ExecLatency() uint64 {
	switch o {
	case Mul:
		return 3
	case Div:
		return 20
	default:
		return 1
	}
}

func (in Instr) String() string {
	switch {
	case in.Op == Branch:
		return fmt.Sprintf("%s pc=%#x taken=%t r%d,r%d", in.Op, in.PC, in.Taken, in.Src1, in.Src2)
	case in.Op.IsMem():
		return fmt.Sprintf("%s pc=%#x addr=%#x size=%d r%d<-r%d,r%d", in.Op, in.PC, in.Addr, in.Size, in.Dst, in.Src1, in.Src2)
	default:
		return fmt.Sprintf("%s pc=%#x r%d<-r%d,r%d", in.Op, in.PC, in.Dst, in.Src1, in.Src2)
	}
}
