// Fixture for lockorder's shard-set rule: a loop that locks mutexes by a
// []int slot set must draw the set from a sorted, deduplicated builder (or
// sort it itself), and a helper that locks in argument order exports that
// obligation to its call sites.
package shardset

import (
	"sort"
	"sync"

	"potgo/internal/oid"
)

// table is sharded state indexed by slot sets the way Sharded.shards is
// indexed by shard sets.
type table struct {
	mask uint64
	mus  []sync.RWMutex
}

func (t *table) slot(o oid.OID) int { return int(uint64(o) & t.mask) }

// slots is the good slot-set builder: sorted and deduplicated, like
// Sharded.shardSet.
func (t *table) slots(oids []oid.OID) []int {
	idx := make([]int, 0, len(oids))
	for _, o := range oids {
		idx = append(idx, t.slot(o))
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

// slotsBad is slots with the sort removed — the seeded violation.
func (t *table) slotsBad(oids []oid.OID) []int {
	idx := make([]int, 0, len(oids))
	for _, o := range oids {
		idx = append(idx, t.slot(o))
	}
	return idx
}

// lock acquires in slots order: clean.
func (t *table) lock(oids []oid.OID) func() {
	idx := t.slots(oids)
	for _, s := range idx {
		t.mus[s].Lock()
	}
	return func() {
		for i := len(idx) - 1; i >= 0; i-- {
			t.mus[idx[i]].Unlock()
		}
	}
}

// lockBad draws slots from the unsorted builder: flagged at the
// acquisition.
func (t *table) lockBad(oids []oid.OID) {
	idx := t.slotsBad(oids)
	for _, s := range idx {
		t.mus[s].Lock() // want "drawn from an unsorted shard set"
	}
}

// lockManualSort re-establishes sortedness in the caller: clean.
func (t *table) lockManualSort(oids []oid.OID) {
	idx := t.slotsBad(oids)
	sort.Ints(idx)
	for _, s := range idx {
		t.mus[s].Lock()
	}
}

// lockAllAscending indexes by the range key, which ascends by
// construction: clean.
func (t *table) lockAllAscending() {
	for i := range t.mus {
		t.mus[i].Lock()
	}
}

// lockSlots acquires in argument order, so callers owe it a sorted set —
// the obligation is exported as a fact and enforced at call sites.
func (t *table) lockSlots(idx []int) {
	for _, s := range idx {
		t.mus[s].Lock()
	}
}

func useGood(t *table, oids []oid.OID) {
	t.lockSlots(t.slots(oids))
}

func useBad(t *table, oids []oid.OID) {
	t.lockSlots(t.slotsBad(oids)) // want "argument must be a sorted, deduplicated shard set"
}
