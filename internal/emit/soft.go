package emit

import (
	"fmt"

	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/vm"
)

// SoftTranslator is the BASE-mode software translation machinery of paper
// §2.1.3 / Figure 3: a last-value predictor (the most_recent_* globals) in
// front of a chained hash table mapping pool ids to virtual base addresses.
//
// The translator is functional — it really resolves pool bases — and it
// emits the instruction sequence a compiled oid_direct would execute,
// instruction by instruction, with all memory traffic placed on real
// simulated addresses (the globals, the bucket array and the chain entries
// live in a mapped arena, so they occupy cache lines and TLB entries exactly
// the way the paper's "increased working set" discussion describes).
//
// Calibration (paper Table 2): a predictor hit costs exactly 17 dynamic
// instructions; a full look-up costs ~105 for a one-entry chain, +5 per
// extra chain entry probed, landing the per-benchmark EACH averages in the
// paper's 78–107 range.
type SoftTranslator struct {
	e     *Emitter
	as    *vm.AddressSpace
	arena *vm.Arena

	// Globals of Figure 3.
	gValid, gPool, gBase uint64

	// Chained hash table: bucketVA[i] holds the VA of the first entry.
	bucketBase uint64
	nBuckets   uint32

	// Functional mirror of the table.
	chains  map[uint32][]*swEntry
	byPool  map[oid.PoolID]*swEntry
	last    oid.PoolID
	valid   bool
	freeVAs []uint64

	stats SoftStats
}

type swEntry struct {
	pool oid.PoolID
	base uint64
	va   uint64 // address of this entry record in the arena
}

// SoftStats instruments oid_direct for the Table 2 reproduction.
type SoftStats struct {
	// Calls counts oid_direct invocations.
	Calls uint64
	// PredictorHits counts calls satisfied by the most-recent pair.
	PredictorHits uint64
	// Insns counts dynamic instructions spent inside oid_direct.
	Insns uint64
}

// PredictorMissRate is the last-value predictor miss rate (Table 2, last
// column).
func (s SoftStats) PredictorMissRate() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Calls-s.PredictorHits) / float64(s.Calls)
}

// InsnsPerCall is the average dynamic instruction cost of oid_direct
// (Table 2, columns 2–3).
func (s SoftStats) InsnsPerCall() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Insns) / float64(s.Calls)
}

// entryBytes is the size of one chain entry {pool, base, next}.
const entryBytes = 24

// NewSoftTranslator allocates the translation globals and hash table in a
// fresh arena of the address space.
func NewSoftTranslator(e *Emitter, as *vm.AddressSpace, buckets int) (*SoftTranslator, error) {
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		return nil, fmt.Errorf("emit: buckets (%d) must be a positive power of two", buckets)
	}
	// Arena: globals + bucket array + room for entries.
	arena, err := vm.NewArena(as, uint64(buckets)*8+1<<20)
	if err != nil {
		return nil, err
	}
	st := &SoftTranslator{
		e: e, as: as, arena: arena,
		nBuckets: uint32(buckets),
		chains:   make(map[uint32][]*swEntry),
		byPool:   make(map[oid.PoolID]*swEntry),
	}
	if st.gValid, err = arena.Alloc(8, 8); err != nil {
		return nil, err
	}
	if st.gPool, err = arena.Alloc(8, 8); err != nil {
		return nil, err
	}
	if st.gBase, err = arena.Alloc(8, 8); err != nil {
		return nil, err
	}
	if st.bucketBase, err = arena.Alloc(uint64(buckets)*8, 64); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *SoftTranslator) bucketOf(pool oid.PoolID) uint32 {
	return (uint32(pool) * 2654435769) % st.nBuckets
}

// Register adds a pool→base mapping (called from pool_create/pool_open).
func (st *SoftTranslator) Register(pool oid.PoolID, base uint64) error {
	if pool == oid.NullPool {
		return fmt.Errorf("emit: cannot register reserved pool 0")
	}
	if old, ok := st.byPool[pool]; ok {
		old.base = base
		return nil
	}
	var va uint64
	if n := len(st.freeVAs); n > 0 {
		va = st.freeVAs[n-1]
		st.freeVAs = st.freeVAs[:n-1]
	} else {
		var err error
		if va, err = st.arena.Alloc(entryBytes, 8); err != nil {
			return err
		}
	}
	ent := &swEntry{pool: pool, base: base, va: va}
	b := st.bucketOf(pool)
	st.chains[b] = append(st.chains[b], ent)
	st.byPool[pool] = ent
	return nil
}

// Unregister removes a pool (pool_close); a stale predictor entry for the
// pool is invalidated.
func (st *SoftTranslator) Unregister(pool oid.PoolID) error {
	ent, ok := st.byPool[pool]
	if !ok {
		return fmt.Errorf("emit: unregister of unknown pool %d", pool)
	}
	delete(st.byPool, pool)
	b := st.bucketOf(pool)
	chain := st.chains[b]
	for i, c := range chain {
		if c == ent {
			st.chains[b] = append(chain[:i], chain[i+1:]...)
			break
		}
	}
	st.freeVAs = append(st.freeVAs, ent.va)
	if st.valid && st.last == pool {
		st.valid = false
	}
	return nil
}

// Lookup resolves a pool's base without emitting code (library-internal
// queries that would not call oid_direct).
//
//potlint:allow unusedexport kept for TestSoftTranslateCorrectness
func (st *SoftTranslator) Lookup(pool oid.PoolID) (uint64, bool) {
	ent, ok := st.byPool[pool]
	if !ok {
		return 0, false
	}
	return ent.base, true
}

// Stats returns oid_direct instrumentation.
func (st *SoftTranslator) Stats() SoftStats { return st.stats }

// Translate is oid_direct (paper Figure 3): it emits the dynamic instruction
// sequence for translating o and returns the virtual address along with the
// register holding it. oidReg is the register that holds the ObjectID value
// (dependency source).
func (st *SoftTranslator) Translate(oidReg isa.Reg, o oid.OID) (isa.Reg, uint64, error) {
	ent, ok := st.byPool[o.Pool()]
	if !ok {
		return isa.RZ, 0, fmt.Errorf("emit: oid_direct on unopened pool %d", o.Pool())
	}
	start := st.e.Count()
	st.stats.Calls++
	e := st.e

	wasValid := st.valid
	hit := wasValid && st.last == o.Pool()

	// --- common prologue: call, argument move, predictor-valid check ---
	e.Jump()                   // call oid_direct
	arg := e.Temp()            //
	e.ALU(arg, oidReg, isa.RZ) // move argument
	rValid := e.Temp()
	e.Load(rValid, isa.RZ, st.gValid, 8)
	e.Branch("oid_direct.valid", wasValid, rValid)

	rPool := e.Temp()
	e.ALU(rPool, arg, isa.RZ) // pool_id = oid >> 32

	if hit {
		// --- fast path: exactly 17 dynamic instructions ---
		rMR := e.Temp()
		e.Load(rMR, isa.RZ, st.gPool, 8)
		cmp := e.Temp()
		e.ALU(cmp, rPool, rMR)
		e.Branch("oid_direct.match", true, cmp)
		rBase := e.Temp()
		e.Load(rBase, isa.RZ, st.gBase, 8)
		rOff := e.Temp()
		e.ALU(rOff, arg, isa.RZ) // offset = oid & 0xffffffff
		rVA := e.Temp()
		e.ALU(rVA, rBase, rOff) // base + offset
		e.Compute(5, rVA)       // return-value move, epilogue
		e.Jump()                // ret
		st.stats.PredictorHits++
		st.stats.Insns += st.e.Count() - start
		st.valid, st.last = true, o.Pool()
		return rVA, ent.base + uint64(o.Offset()), nil
	}

	if wasValid {
		// Predictor valid but wrong pool: the compare-and-branch pair
		// executed before falling into the slow path.
		rMR := e.Temp()
		e.Load(rMR, isa.RZ, st.gPool, 8)
		cmp := e.Temp()
		e.ALU(cmp, rPool, rMR)
		e.Branch("oid_direct.match", false, cmp)
	}

	// --- slow path: full table look-up (pmemobj-style machinery) ---
	// Entry into the pool-registry layer: call overhead, lock checks,
	// cached-handle validation. Modelled as a block of dependent ALU work
	// plus a few metadata loads.
	e.Jump() // call into the look-up layer
	meta1 := e.Temp()
	e.Load(meta1, isa.RZ, st.gValid, 8) // registry state
	e.Compute(25, meta1, rPool)

	// Hash the pool id and index the bucket array.
	h := e.Temp()
	e.Mul(h, rPool, isa.RZ)
	idx := e.Compute(3, h) // shift, mask, scale
	b := st.bucketOf(o.Pool())
	bucketVA := st.bucketBase + uint64(b)*8
	rEnt := e.Temp()
	e.Load(rEnt, idx, bucketVA, 8)

	// Walk the chain to the matching entry.
	chain := st.chains[b]
	for _, c := range chain {
		rEPool := e.Temp()
		e.Load(rEPool, rEnt, c.va, 8) // entry->pool
		cmp := e.Temp()
		e.ALU(cmp, rEPool, rPool)
		match := c.pool == o.Pool()
		e.Branch("oid_direct.chain", match, cmp)
		if match {
			break
		}
		next := e.Temp()
		e.Load(next, rEnt, c.va+16, 8) // entry->next
		rEnt = next
		e.Jump()
	}

	// Load the base and update the most-recent pair.
	rBase := e.Temp()
	e.Load(rBase, rEnt, ent.va+8, 8) // entry->base
	one := e.Compute(1)
	e.Store(isa.RZ, st.gValid, 8, one)
	e.Store(isa.RZ, st.gPool, 8, rPool)
	e.Store(isa.RZ, st.gBase, 8, rBase)

	// Return through the library layers: handle repacking, unlock,
	// epilogue.
	e.Compute(56, rBase)
	rOff := e.Temp()
	e.ALU(rOff, arg, isa.RZ)
	rVA := e.Temp()
	e.ALU(rVA, rBase, rOff)
	e.Compute(8, rVA)
	e.Jump() // ret

	// Functional predictor update.
	st.valid, st.last = true, o.Pool()
	st.stats.Insns += st.e.Count() - start
	return rVA, ent.base + uint64(o.Offset()), nil
}
