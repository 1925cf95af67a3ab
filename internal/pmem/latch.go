package pmem

import (
	"sort"
	"sync"

	"potgo/internal/oid"
)

// LatchTable provides per-OID latching above the shard locks: a fixed array
// of reader/writer latches that ObjectIDs hash onto. Latches give logical
// operations (one B-tree insert, one list push) structure-level mutual
// exclusion that is independent of where the structure's pools happen to
// land in the shard map — two structures sharing a shard still serialize
// only on the shard, but a structure spanning several pools is protected as
// one unit by latching its anchor(s).
//
// Lock order is fixed: latches before shard locks, and within a latch set,
// ascending slot index (Lock/RLock sort and deduplicate internally), so no
// latch/latch or latch/shard cycle can form.
type LatchTable struct {
	mask uint64
	mus  []sync.RWMutex
}

// NewLatchTable builds a table of at least n latches (rounded up to a power
// of two).
func NewLatchTable(n int) *LatchTable {
	size := 1
	for size < n {
		size <<= 1
	}
	return &LatchTable{mask: uint64(size - 1), mus: make([]sync.RWMutex, size)}
}

// Len returns the number of latch slots.
func (lt *LatchTable) Len() int { return len(lt.mus) }

// Slot returns the latch index an OID hashes to (exported for tests and
// for deadlock-analysis tooling).
func (lt *LatchTable) Slot(o oid.OID) int { return int(hashOID(o) & lt.mask) }

// hashOID is the splitmix64 finalizer: cheap and well distributed over both
// the pool and offset halves of the OID. The latch table and the MVCC
// version index both slot by it.
func hashOID(o oid.OID) uint64 {
	x := uint64(o)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// slots returns the sorted, deduplicated latch indices for a set of OIDs.
func (lt *LatchTable) slots(oids []oid.OID) []int {
	idx := make([]int, 0, len(oids))
	for _, o := range oids {
		idx = append(idx, lt.Slot(o))
	}
	sort.Ints(idx)
	out := idx[:0]
	for i, s := range idx {
		if i == 0 || s != idx[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// Lock write-latches every OID's slot (ascending order, duplicates
// collapsed) and returns the unlock function.
func (lt *LatchTable) Lock(oids ...oid.OID) func() {
	idx := lt.slots(oids)
	for _, s := range idx {
		lt.mus[s].Lock()
	}
	return func() {
		for i := len(idx) - 1; i >= 0; i-- {
			lt.mus[idx[i]].Unlock()
		}
	}
}

// RLock read-latches every OID's slot and returns the unlock function. Two
// OIDs hashing to one slot are latched once, so a read set can never
// self-deadlock.
func (lt *LatchTable) RLock(oids ...oid.OID) func() {
	idx := lt.slots(oids)
	for _, s := range idx {
		lt.mus[s].RLock()
	}
	return func() {
		for i := len(idx) - 1; i >= 0; i-- {
			lt.mus[idx[i]].RUnlock()
		}
	}
}
