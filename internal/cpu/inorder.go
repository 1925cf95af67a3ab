package cpu

import (
	"potgo/internal/isa"
)

// InOrder is the five-stage in-order pipeline of paper §4.5 (IF ID EX MEM
// WB) as a trace.Consumer: it times each chunk of the trace as it arrives,
// and Result reports the run once the trace has ended.
//
// Model summary:
//
//   - Single issue, one instruction per cycle when nothing stalls.
//   - Stall-on-use scoreboarding: an instruction stalls in decode until its
//     source registers are ready, so load-delay slots can be covered by
//     independent instructions.
//   - Cache hits are pipelined (the MEM stage accepts one access per
//     cycle); everything beyond an L1 hit — a TLB miss, an L2/L3/memory
//     access, or a POT walk — blocks the pipeline, as in-order cores with
//     blocking caches do.
//   - The Pipelined POLB adds its 3-cycle CAM latency to load-to-use
//     latency (the CAM itself is pipelined); the Parallel POLB overlaps the
//     L1 access and adds nothing on hits.
//   - Stores and CLWBs retire into a store buffer and do not stall the
//     pipeline (beyond any translation-walk or TLB stall needed to compute
//     their address); SFENCE drains the buffer.
//   - Conditional branches consult a bimodal predictor; a misprediction
//     costs the fixed redirect penalty (8 cycles).
type InOrder struct {
	cfg      Config
	m        *Machine
	pred     *predictor
	regReady [isa.NumRegs]uint64
	l1Lat    uint64

	cycle     uint64 // next issue slot
	storeDone uint64 // completion of last buffered store/CLWB

	res Result
	err error
}

// NewInOrder builds an in-order core over m.
func NewInOrder(cfg Config, m *Machine) *InOrder {
	return &InOrder{
		cfg:   cfg,
		m:     m,
		pred:  newPredictor(cfg.PredictorEntries),
		l1Lat: m.Hier.Config().L1Latency,
	}
}

// Consume implements trace.Consumer. After a simulation error (an unmapped
// address, a NULL ObjectID, a POT miss) it ignores every further chunk;
// Result reports the error.
func (c *InOrder) Consume(chunk []isa.Instr) {
	if c.err != nil {
		return
	}
	var (
		cfg       = &c.cfg
		m         = c.m
		regReady  = &c.regReady
		res       = &c.res
		l1Lat     = c.l1Lat
		cycle     = c.cycle
		storeDone = c.storeDone
	)
loop:
	for i := range chunk {
		in := &chunk[i]
		res.Mix.ByOp[in.Op]++

		start := cycle
		if t := regReady[in.Src1]; t > start {
			start = t
		}
		if t := regReady[in.Src2]; t > start {
			start = t
		}
		cycle = start + 1

		switch in.Op {
		case isa.Nop:
			// Just the issue slot.

		case isa.ALU, isa.Mul, isa.Div:
			if in.Dst != isa.RZ {
				regReady[in.Dst] = start + in.Op.ExecLatency()
			}
			// Long-latency units block a simple in-order pipe.
			if lat := in.Op.ExecLatency(); lat > 1 {
				cycle = start + lat
			}

		case isa.Jump:
			// Direct jumps/calls are BTB hits: no penalty.

		case isa.Branch:
			if in.Taken {
				res.Mix.Taken++
			}
			if c.pred.predict(in.PC, in.Taken) {
				cycle = start + 1 + cfg.MispredictPenalty
				res.BranchStallCycles += cfg.MispredictPenalty
			}

		case isa.Load, isa.NVLoad:
			acc, err := m.resolve(in.Op, in.Addr)
			if err != nil {
				c.err = err
				break loop
			}
			// Blocking portion: POT walk, TLB miss, sub-L1 misses.
			block := acc.walkLat + acc.tlbLat
			if acc.cacheLat > l1Lat {
				block += acc.cacheLat - l1Lat
			}
			if block > 0 {
				cycle = start + 1 + block
			}
			if in.Dst != isa.RZ {
				regReady[in.Dst] = start + acc.total()
			}
			res.MemStallCycles += block
			res.TransStallCycles += acc.transLat()

		case isa.Store, isa.NVStore:
			acc, err := m.resolve(in.Op, in.Addr)
			if err != nil {
				c.err = err
				break loop
			}
			// Address generation must complete before the store can
			// enter the buffer; the write itself is buffered.
			block := acc.walkLat + acc.tlbLat
			if block > 0 {
				cycle = start + 1 + block
			}
			done := start + acc.total()
			if done > storeDone {
				storeDone = done
			}
			res.MemStallCycles += block
			res.TransStallCycles += acc.transLat()

		case isa.CLWB:
			acc, err := m.resolve(in.Op, in.Addr)
			if err != nil {
				c.err = err
				break loop
			}
			done := start + acc.cacheLat
			if done > storeDone {
				storeDone = done
			}

		case isa.SFence:
			if storeDone > cycle {
				res.MemStallCycles += storeDone - cycle
				cycle = storeDone
			}
		}

		if m.Tracer != nil {
			done := cycle
			if in.Dst != isa.RZ && regReady[in.Dst] > done {
				done = regReady[in.Dst]
			}
			m.Tracer.InOrder(in.Op.String(), start, done)
		}
	}
	c.cycle, c.storeDone = cycle, storeDone
	res.Mix.Tally()
}

// Result returns the timing of the trace consumed so far, or the simulation
// error that stopped it.
func (c *InOrder) Result() (Result, error) {
	res := c.res
	res.Cycles = c.cycle
	res.finish(c.m, c.pred)
	return res, c.err
}
