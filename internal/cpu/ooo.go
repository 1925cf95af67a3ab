package cpu

import (
	"potgo/internal/isa"
)

// slotClock enforces a per-cycle width limit on a pipeline stage: each slot
// accepts one instruction per cycle. The slots' next free cycles are kept in
// ascending order, so the earliest is always s[0].
type slotClock []uint64

func newSlotClock(width int) slotClock { return make(slotClock, width) }

// take claims the earliest slot at or after `earliest` and returns the cycle
// granted. One fixed-length merge pass drops the claimed minimum and inserts
// its next free cycle t+1 in order, with no data-dependent branch. The new
// minimum is min(s[1], t+1) outright, as both are at least s[0]; taking it
// without the max keeps the next take's dependency chain short.
func (s slotClock) take(earliest uint64) uint64 {
	t := max(earliest, s[0])
	v, n := t+1, len(s)-1
	if n == 0 {
		s[0] = v
		return t
	}
	s[0] = min(s[1], v)
	for i := 1; i < n; i++ {
		s[i] = max(s[i], min(s[i+1], v))
	}
	s[n] = max(s[n], v)
	return t
}

// commitClock is slotClock for a stage whose grants never go backwards
// (in-order commit). Each take grants max(earliest, the previous grant),
// one cycle later if the last W grants all fell in that cycle: the only
// case in which the sorted clock's earliest slot lies past the request. So
// a (cycle, used) pair replaces the W slots, and for requests that never
// go backwards it grants exactly what slotClock does
// (TestCommitClockMatchesSlotClock).
type commitClock struct {
	cycle, used, width uint64 // latest grant, grants in that cycle, W
}

func newCommitClock(width int) commitClock { return commitClock{width: uint64(width)} }

// take grants the first cycle at or after both earliest and the previous
// grant that holds fewer than W grants.
func (c *commitClock) take(earliest uint64) uint64 {
	if earliest > c.cycle {
		c.cycle, c.used = earliest, 0
	}
	if c.used == c.width {
		c.cycle++
		c.used = 0
	}
	c.used++
	return c.cycle
}

// sqEntry is a store-queue entry used for store-to-load forwarding.
type sqEntry struct {
	va    uint64
	size  uint64
	ready uint64 // cycle the address and data are available in the SQ
	valid bool
}

// sqFilter counts, for each 8-byte granule of the address space folded onto
// 256 buckets, the valid store-queue entries whose bytes
// [va, va+max(size,1)) touch it. A load none of whose granules is counted
// overlaps no valid entry, so it can skip the store-queue search; otherwise
// the search runs unchanged, and the filter never alters its answer.
type sqFilter [256]uint32

// granules returns the first and last 8-byte granule of [va, va+max(size,1)).
// A zero-size range still names the granule of va: the overlap test of
// youngestConflict can match a zero-size store or load there. Only mapped
// addresses reach the store queue, and they lie far below 2^64, so the
// range never wraps.
func granules(va, size uint64) (first, last uint64) {
	return va >> 3, (va + max(size, 1) - 1) >> 3
}

// put writes e into sq[pos], moving the counts from the entry it replaces
// to e. Invalid entries (CLWBs) are never counted.
func (f *sqFilter) put(sq []sqEntry, pos int, e sqEntry) {
	if old := &sq[pos]; old.valid {
		first, last := granules(old.va, old.size)
		for g := first; g <= last; g++ {
			f[g&255]--
		}
	}
	sq[pos] = e
	if e.valid {
		first, last := granules(e.va, e.size)
		for g := first; g <= last; g++ {
			f[g&255]++
		}
	}
}

// youngestConflict is the package function of the same name behind the
// filter: loads whose granules are all uncounted skip the search.
func (f *sqFilter) youngestConflict(sq []sqEntry, next int, va, size uint64) (ready uint64, hit bool) {
	first, last := granules(va, size)
	for g := first; g <= last; g++ {
		if f[g&255] != 0 {
			return youngestConflict(sq, next, va, size)
		}
	}
	return 0, false
}

// OutOfOrder is the out-of-order superscalar model of paper §4.4 as a
// trace.Consumer, using the timestamp ("instruction-window-centric")
// approach of Sniper's ROB core model, which is the simulator the paper
// extends.
//
// Per instruction the model derives dispatch, issue, completion and commit
// times constrained by:
//
//   - front-end width (FetchWidth per cycle) and branch-misprediction
//     redirects (dispatch of younger instructions floors at branch
//     resolution + the 8-cycle penalty);
//   - ROB/LQ/SQ occupancy (an instruction cannot dispatch until the entry
//     of the instruction ROB-size earlier has been released);
//   - register data dependencies (wake-up on completion times);
//   - issue and commit widths;
//   - the LSQ: loads search older stores by post-translation virtual
//     address and forward from the youngest conflicting one — which is why
//     the Pipelined POLB, whose output is a virtual address available at
//     AGEN, composes with unmodified disambiguation hardware (paper §4.3),
//     and the Parallel design is not modelled for out-of-order cores;
//   - nvld/nvst address generation: the POLB CAM access extends AGEN and a
//     POLB miss stalls AGEN for the POT walk.
//
// Stores and CLWBs drain to the cache after commit and hold their SQ entry
// until the line is written; SFENCE completes only after every prior
// store/CLWB has drained.
type OutOfOrder struct {
	cfg      Config
	m        *Machine
	pred     *predictor
	regReady [isa.NumRegs]uint64
	l1Lat    uint64

	// Fetch and issue requests go backwards, so those stages keep the
	// sorted slot clock; commit is in order.
	fetchSlots, issueSlots slotClock
	commit                 commitClock

	// The window rings hold each entry's release cycle; robPos, lqPos and
	// sqPos are the entries the next instruction, load and store/CLWB
	// occupy. sq is the store queue itself, indexed like sqRing, and
	// sqGran filters its forwarding search.
	robRing, lqRing, sqRing []uint64
	sq                      []sqEntry
	sqGran                  sqFilter
	robPos, lqPos, sqPos    int

	dispatchFloor uint64 // branch-redirect floor
	storeDrainMax uint64

	res Result
	err error
}

// NewOutOfOrder builds an out-of-order core over m.
func NewOutOfOrder(cfg Config, m *Machine) *OutOfOrder {
	return &OutOfOrder{
		cfg:        cfg,
		m:          m,
		pred:       newPredictor(cfg.PredictorEntries),
		l1Lat:      m.Hier.Config().L1Latency,
		fetchSlots: newSlotClock(cfg.FetchWidth),
		issueSlots: newSlotClock(cfg.IssueWidth),
		commit:     newCommitClock(cfg.CommitWidth),
		robRing:    make([]uint64, cfg.ROB),
		lqRing:     make([]uint64, cfg.LQ),
		sqRing:     make([]uint64, cfg.SQ),
		sq:         make([]sqEntry, cfg.SQ),
	}
}

// Consume implements trace.Consumer. After a simulation error it ignores
// every further chunk; Result reports the error.
func (c *OutOfOrder) Consume(chunk []isa.Instr) {
	if c.err != nil {
		return
	}
	var (
		cfg           = &c.cfg
		m             = c.m
		regReady      = &c.regReady
		res           = &c.res
		l1Lat         = c.l1Lat
		fetchSlots    = c.fetchSlots
		issueSlots    = c.issueSlots
		commits       = c.commit
		robRing       = c.robRing
		lqRing        = c.lqRing
		sqRing        = c.sqRing
		sq            = c.sq
		sqGran        = &c.sqGran
		robPos        = c.robPos
		lqPos         = c.lqPos
		sqPos         = c.sqPos
		dispatchFloor = c.dispatchFloor
		storeDrainMax = c.storeDrainMax
	)
loop:
	for i := range chunk {
		in := &chunk[i]
		res.Mix.ByOp[in.Op]++
		isLoad, isStore := in.Op.IsLoad(), in.Op.IsStore()

		// Dispatch: front-end pacing, redirect floor, window occupancy.
		// Each window structure is charged the cycles by which it alone
		// pushes the dispatch floor past all earlier constraints.
		floor := dispatchFloor
		if t := robRing[robPos]; t > floor {
			res.ROBStallCycles += t - floor
			floor = t
		}
		if isLoad {
			if t := lqRing[lqPos]; t > floor {
				res.LQStallCycles += t - floor
				floor = t
			}
		}
		if isStore {
			if t := sqRing[sqPos]; t > floor {
				res.SQStallCycles += t - floor
				floor = t
			}
		}
		dispatch := fetchSlots.take(floor) + cfg.FrontendDepth

		// Wake-up: wait for source operands.
		ready := dispatch
		if t := regReady[in.Src1]; t > ready {
			ready = t
		}
		if t := regReady[in.Src2]; t > ready {
			ready = t
		}
		issue := issueSlots.take(ready)

		// Execute.
		var complete uint64
		var drainLat uint64 // post-commit cache-write latency (stores)
		switch in.Op {
		case isa.Nop, isa.Jump:
			complete = issue + 1

		case isa.ALU, isa.Mul, isa.Div:
			complete = issue + in.Op.ExecLatency()

		case isa.Branch:
			complete = issue + 1
			if in.Taken {
				res.Mix.Taken++
			}
			if c.pred.predict(in.PC, in.Taken) {
				redirect := complete + cfg.MispredictPenalty
				if redirect > dispatchFloor {
					dispatchFloor = redirect
				}
				res.BranchStallCycles += cfg.MispredictPenalty
			}

		case isa.Load, isa.NVLoad:
			acc, err := m.resolve(in.Op, in.Addr)
			if err != nil {
				c.err = err
				break loop
			}
			agenDone := issue + 1 + acc.transLat()
			if stReady, hit := sqGran.youngestConflict(sq, sqPos, acc.va, uint64(in.Size)); hit {
				// Store-to-load forwarding out of the SQ.
				complete = max(agenDone, stReady+1)
			} else {
				complete = agenDone + acc.tlbLat + acc.cacheLat
			}
			res.TransStallCycles += acc.transLat()
			res.MemStallCycles += acc.tlbLat
			if acc.cacheLat > l1Lat {
				res.MemStallCycles += acc.cacheLat - l1Lat
			}

		case isa.Store, isa.NVStore, isa.CLWB:
			acc, err := m.resolve(in.Op, in.Addr)
			if err != nil {
				c.err = err
				break loop
			}
			agenDone := issue + 1 + acc.transLat() + acc.tlbLat
			complete = agenDone // address+data in SQ: eligible to retire
			sqGran.put(sq, sqPos, sqEntry{va: acc.va, size: uint64(in.Size), ready: agenDone, valid: in.Op != isa.CLWB})
			drainLat = acc.cacheLat
			res.TransStallCycles += acc.transLat()
			res.MemStallCycles += acc.tlbLat

		case isa.SFence:
			complete = issue + 1
			if storeDrainMax > complete {
				complete = storeDrainMax
			}
		}

		if in.Dst != isa.RZ {
			regReady[in.Dst] = complete
		}

		// In-order commit, width-limited.
		commit := commits.take(complete)

		if m.Tracer != nil {
			m.Tracer.OoO(in.Op.String(), dispatch-cfg.FrontendDepth, dispatch, issue, complete, commit)
		}

		// Release window entries.
		robRing[robPos] = commit
		if robPos++; robPos == len(robRing) {
			robPos = 0
		}
		if isLoad {
			lqRing[lqPos] = commit
			if lqPos++; lqPos == len(lqRing) {
				lqPos = 0
			}
		}
		if isStore {
			drain := commit + drainLat
			sqRing[sqPos] = drain
			if drain > storeDrainMax {
				storeDrainMax = drain
			}
			if sqPos++; sqPos == len(sqRing) {
				sqPos = 0
			}
		}
	}
	c.robPos, c.lqPos, c.sqPos = robPos, lqPos, sqPos
	c.commit, c.dispatchFloor, c.storeDrainMax = commits, dispatchFloor, storeDrainMax
	res.Mix.Tally()
}

// Result returns the timing of the trace consumed so far, or the simulation
// error that stopped it.
func (c *OutOfOrder) Result() (Result, error) {
	res := c.res
	res.Cycles = c.commit.cycle
	res.finish(c.m, c.pred)
	return res, c.err
}

// youngestConflict searches the store queue for the youngest store whose
// byte range overlaps [va, va+size) and returns the cycle its data is ready.
// next is the entry the next store will occupy, so the youngest stores sit
// at next-1 down to 0 and then, once the ring has wrapped, at len(sq)-1
// down to next; entries never written are invalid and match nothing.
// Addresses in the SQ are post-translation virtual addresses, so nvst→ld
// and st→nvld forwarding work exactly as the paper's Pipelined design
// intends.
func youngestConflict(sq []sqEntry, next int, va, size uint64) (ready uint64, hit bool) {
	for i := next - 1; i >= 0; i-- {
		if e := &sq[i]; e.valid && e.va < va+size && va < e.va+e.size {
			return e.ready, true
		}
	}
	for i := len(sq) - 1; i >= next; i-- {
		if e := &sq[i]; e.valid && e.va < va+size && va < e.va+e.size {
			return e.ready, true
		}
	}
	return 0, false
}
