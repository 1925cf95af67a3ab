// Package polb implements the Persistent Object Look-aside Buffer of paper
// §4.1: a small, fully-associative, CAM-tagged cache inside the core that
// translates ObjectIDs on nvld/nvst instructions.
//
// Two microarchitectures are modelled (paper Figure 6):
//
//   - Pipelined: each entry maps a pool identifier to the pool's 64-bit
//     virtual base address. The POLB sits in the address-generation stage;
//     its output (vbase + offset) then flows to the TLB and L1 like any
//     virtual address. One entry covers an entire pool.
//
//   - Parallel: each entry maps the upper 52 bits of an ObjectID — the pool
//     id concatenated with the 20-bit page number within the pool — to a
//     physical frame. Because the low 12 bits index a virtually-indexed
//     physically-tagged L1 directly, the POLB look-up proceeds in parallel
//     with the cache access and adds no hit latency; but one entry now
//     covers only a 4 KB page, so the POLB sees far more contention.
//
// The paper's POLB is a fully-associative CAM with LRU replacement; that is
// what New builds. NewSetAssociative builds the cheaper set-associative
// variant for the ablation study (a real implementation might prefer it for
// cycle time), trading conflict misses for CAM cost. A size of zero models
// the "no POLB" configuration of the paper's sensitivity study (every
// hardware translation walks the POT).
package polb

import (
	"fmt"

	"potgo/internal/oid"
)

// Design selects the POLB microarchitecture.
type Design int

const (
	// Pipelined translates ObjectID → virtual address before the TLB/L1
	// (adds POLB latency to every nvld/nvst).
	Pipelined Design = iota
	// Parallel translates ObjectID → physical frame concurrently with
	// the L1 access (no added hit latency, higher miss rate and penalty).
	Parallel
)

func (d Design) String() string {
	switch d {
	case Pipelined:
		return "Pipelined"
	case Parallel:
		return "Parallel"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// DefaultEntries is the paper's chosen POLB size (§5.1, sensitivity §6.3).
const DefaultEntries = 32

// Stats counts POLB look-ups.
type Stats struct {
	Hits, Misses uint64
}

// Accesses returns total look-ups.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns misses/accesses (0 when unused).
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

type entry struct {
	tag  uint64
	data uint64
}

// POLB is the look-aside buffer: `sets` LRU-ordered ways arrays, with the
// fully-associative CAM as the one-set special case. Within each set,
// entries are kept most-recently-used first.
type POLB struct {
	design Design
	sets   int
	ways   int
	rows   [][]entry
	stats  Stats
}

// New builds the paper's fully-associative CAM with `size` entries. Size 0
// is the "no POLB" configuration.
func New(design Design, size int) *POLB {
	p, err := NewSetAssociative(design, 1, size)
	if err != nil {
		panic(err) // 1 set is always a valid geometry
	}
	return p
}

// NewSetAssociative builds a set-associative POLB with sets×ways entries,
// indexed by the low bits of the tag. sets must be a power of two; one set
// is the CAM.
func NewSetAssociative(design Design, sets, ways int) (*POLB, error) {
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("polb: sets (%d) must be a positive power of two", sets)
	}
	if ways < 0 {
		return nil, fmt.Errorf("polb: negative ways %d", ways)
	}
	return &POLB{design: design, sets: sets, ways: ways, rows: make([][]entry, sets)}, nil
}

// Size returns the configured entry count.
//
//potlint:allow unusedexport kept for TestSetAssociativeGeometry and TestCAMIsOneSet
func (p *POLB) Size() int { return p.sets * p.ways }

// Sets returns the set count (1 = fully associative).
//
//potlint:allow unusedexport kept for TestSetAssociativeGeometry and TestCAMIsOneSet
func (p *POLB) Sets() int { return p.sets }

// tagOf derives the tag for an ObjectID under the configured design.
func (p *POLB) tagOf(o oid.OID) uint64 {
	if p.design == Pipelined {
		return uint64(o.Pool())
	}
	return o.PageTag()
}

func (p *POLB) row(tag uint64) int { return int(tag) & (p.sets - 1) }

// Lookup searches the ObjectID's set. On a hit it returns the entry's data
// — the pool's virtual base address (Pipelined) or the physical page base
// address (Parallel) — and promotes the entry to MRU within its set.
func (p *POLB) Lookup(o oid.OID) (data uint64, hit bool) {
	tag := p.tagOf(o)
	row := p.rows[p.row(tag)]
	for i := range row {
		if row[i].tag == tag {
			e := row[i]
			copy(row[1:i+1], row[:i])
			row[0] = e
			p.stats.Hits++
			return e.data, true
		}
	}
	p.stats.Misses++
	return 0, false
}

// Fill installs a translation after a POT walk, evicting the set's LRU
// entry if full. With zero ways this is a no-op.
func (p *POLB) Fill(o oid.OID, data uint64) {
	if p.ways == 0 {
		return
	}
	tag := p.tagOf(o)
	idx := p.row(tag)
	row := p.rows[idx]
	for i := range row {
		if row[i].tag == tag {
			// Already present (e.g. racing fill): refresh data, promote.
			row[i].data = data
			e := row[i]
			copy(row[1:i+1], row[:i])
			row[0] = e
			return
		}
	}
	if len(row) < p.ways {
		row = append(row, entry{})
	}
	copy(row[1:], row[:len(row)-1])
	row[0] = entry{tag: tag, data: data}
	p.rows[idx] = row
}

// Probe reports residency without perturbing LRU order or statistics.
//
//potlint:allow unusedexport kept for TestLRUReplacement, TestInvalidatePool and TestSetAssociativeInvalidateAndFlush
func (p *POLB) Probe(o oid.OID) bool {
	tag := p.tagOf(o)
	for _, e := range p.rows[p.row(tag)] {
		if e.tag == tag {
			return true
		}
	}
	return false
}

// InvalidatePool drops every entry belonging to the pool (required when the
// OS unmaps a pool: stale translations must not survive, for either design).
func (p *POLB) InvalidatePool(pool oid.PoolID) {
	for i, row := range p.rows {
		out := row[:0]
		for _, e := range row {
			if p.poolOfTag(e.tag) != pool {
				out = append(out, e)
			}
		}
		p.rows[i] = out
	}
}

func (p *POLB) poolOfTag(tag uint64) oid.PoolID {
	if p.design == Pipelined {
		return oid.PoolID(tag)
	}
	// Parallel tags are OID>>12: pool occupies bits [52:20].
	return oid.PoolID(tag >> (oid.OffsetBits - oid.PageShift))
}

// Flush empties the POLB (context switch).
func (p *POLB) Flush() {
	for i := range p.rows {
		p.rows[i] = p.rows[i][:0]
	}
}

// Len returns the number of valid entries.
func (p *POLB) Len() int {
	n := 0
	for _, row := range p.rows {
		n += len(row)
	}
	return n
}

// Stats returns hit/miss counters.
func (p *POLB) Stats() Stats { return p.stats }

// ResetStats zeroes the counters (after warm-up).
func (p *POLB) ResetStats() { p.stats = Stats{} }

// TagBits returns the tag width in bits for the design, and DataBits the
// data width, used for the hardware-cost arithmetic in paper §5.1 (a
// 32-entry Pipelined POLB has a 32×32-bit tag array and 32×64-bit data
// array; Parallel has 52-bit tags and 52-bit data).
//
//potlint:allow unusedexport kept for TestHardwareCostArithmetic and TestSetAssociativeIndexesByLowTagBits
func (d Design) TagBits() int {
	if d == Pipelined {
		return oid.PoolBits
	}
	return 64 - oid.PageShift
}

// DataBits returns the per-entry payload width in bits.
//
//potlint:allow unusedexport kept for TestHardwareCostArithmetic
func (d Design) DataBits() int {
	if d == Pipelined {
		return 64
	}
	return 64 - oid.PageShift
}
