package cache

import "potgo/internal/vm"

// TLB models a translation look-aside buffer as a fully-associative,
// page-granularity cache over virtual page numbers. The paper (following
// Sniper) does not model the page-table walk in detail; a miss is charged a
// fixed penalty instead.
type TLB struct {
	c           *Cache
	missPenalty uint64
}

// NewTLB builds a TLB with the given number of entries and fixed miss
// penalty in cycles.
func NewTLB(name string, entries int, missPenalty uint64) *TLB {
	// Model as fully associative: 1 set, `entries` ways, page-grain
	// blocks. Real TLBs are highly associative; full associativity is the
	// standard simplification at this entry count.
	return &TLB{
		c: New(Config{
			Name:      name,
			Sets:      1,
			Ways:      entries,
			LineShift: vm.PageShift,
		}),
		missPenalty: missPenalty,
	}
}

// Access looks up the page containing va. It returns the cycle penalty
// incurred: 0 on a hit, the fixed walk penalty on a miss (the entry is then
// filled).
func (t *TLB) Access(va uint64) (penalty uint64) {
	if t.c.Access(va) {
		return 0
	}
	return t.missPenalty
}

// Stats returns hit/miss counters.
func (t *TLB) Stats() Stats { return t.c.Stats() }

// Flush empties the TLB (context switch / pool unmap).
func (t *TLB) Flush() { t.c.Flush() }
