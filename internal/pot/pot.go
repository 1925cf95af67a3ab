// Package pot implements the Persistent Object Table of paper §4.2: a
// per-process, in-memory hash table mapping pool identifiers to the virtual
// base address where the pool is mapped.
//
// The table is the hardware-walkable backing store for the POLB, playing the
// role a page table plays for the TLB. Following the paper:
//
//   - The table has a fixed number of entries (16384 by default, 256 KB of
//     memory) and lives at a base virtual address that hardware reads from a
//     new architectural register.
//   - Each entry holds a pool identifier and the pool's virtual base
//     address. Pool id 0 is reserved to mean "invalid entry", which lets the
//     OS initialize the table to all-zeroes.
//   - The hardware walk hashes the pool id to an index and then linearly
//     probes: a valid entry with a matching pool id is a hit; an invalid
//     entry terminates the search and raises an exception (the OS may abort
//     the program or establish a mapping and retry).
//
// The table contents are stored in simulated memory (internal/vm) so that
// the structure occupies real, cache-modelled addresses.
package pot

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"potgo/internal/oid"
	"potgo/internal/vm"
)

// DefaultEntries is the paper's POT size (§5.1): 16384 entries = 256 KB.
const DefaultEntries = 16384

// EntryBytes is the size of one POT entry: a 32-bit pool id, 32 bits of
// padding, and a 64-bit virtual base address.
const EntryBytes = 16

// ErrNoTranslation is returned when a pool has no POT entry. In hardware
// this raises an exception that traps to the OS (paper §3.2).
var ErrNoTranslation = errors.New("pot: no translation for pool (exception)")

// ErrFull is returned when the table cannot accept another pool.
var ErrFull = errors.New("pot: table full")

// Stats counts hardware walks.
type Stats struct {
	// Walks is the number of look-ups performed (POLB misses).
	Walks uint64
	// Probes is the total number of entries examined across all walks;
	// Probes/Walks is the mean probe distance.
	Probes uint64
	// Misses counts walks that ended at an invalid entry (exceptions).
	Misses uint64
}

// potStripes is the number of lock stripes a concurrent table shards its
// readers across. Pool ids are sequential, so a simple modulus spreads
// them evenly.
const potStripes = 16

// Table is the Persistent Object Table.
type Table struct {
	as      *vm.AddressSpace
	base    uint64 // virtual base address of entry 0
	entries uint32
	mask    uint32
	count   uint32
	stats   Stats

	// concurrent gates the lock stripes: readers (Walk/Lookup) take the
	// read side of their pool's stripe, writers (Insert/Remove) take every
	// stripe in index order — linear probing means a mutation for one pool
	// can shift entries other pools' chains run through, so writes
	// exclude all readers. Off by default: a single-threaded table pays
	// nothing.
	concurrent bool
	stripes    [potStripes]sync.RWMutex
}

// New maps a fresh POT of the given number of entries (a power of two) into
// the address space and returns it. All entries start invalid (zeroed pages).
func New(as *vm.AddressSpace, entries int) (*Table, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("pot: entries (%d) must be a positive power of two", entries)
	}
	r, err := as.Map(uint64(entries) * EntryBytes)
	if err != nil {
		return nil, err
	}
	return &Table{
		as:      as,
		base:    r.Base,
		entries: uint32(entries),
		mask:    uint32(entries - 1),
		count:   0,
	}, nil
}

// SetConcurrent enables the lock stripes so the table may be read from
// multiple goroutines while pools are (rarely) mapped and unmapped. There
// is no way back to the unlocked mode.
func (t *Table) SetConcurrent() { t.concurrent = true }

func stripeOf(pool oid.PoolID) int { return int(uint32(pool) % potStripes) }

// lockAllStripes write-locks every stripe in index order (the fixed order
// prevents writer/writer deadlock) and returns the matching unlock.
func (t *Table) lockAllStripes() func() {
	for i := range t.stripes {
		t.stripes[i].Lock()
	}
	return func() {
		for i := range t.stripes {
			t.stripes[i].Unlock()
		}
	}
}

// Base returns the table's base virtual address (the value the new
// architectural register would hold).
//
//potlint:allow unusedexport kept for TestNewValidation
func (t *Table) Base() uint64 { return t.base }

// Entries returns the table capacity.
func (t *Table) Entries() int { return int(t.entries) }

// Len returns the number of pools currently mapped.
func (t *Table) Len() int { return int(atomic.LoadUint32(&t.count)) }

// SizeBytes returns the memory footprint of the table.
//
//potlint:allow unusedexport kept for TestNewValidation
func (t *Table) SizeBytes() uint64 { return uint64(t.entries) * EntryBytes }

// hash spreads pool ids across the table. Fibonacci hashing on the 32-bit
// pool id; any decent multiplicative hash matches the paper's unspecified
// "hash function".
func (t *Table) hash(pool oid.PoolID) uint32 {
	return (uint32(pool) * 2654435769) & t.mask
}

func (t *Table) entryAddr(idx uint32) uint64 {
	return t.base + uint64(idx)*EntryBytes
}

func (t *Table) readEntry(idx uint32) (pool oid.PoolID, vbase uint64) {
	p, err := t.as.Read32(t.entryAddr(idx))
	if err != nil {
		panic(fmt.Sprintf("pot: table memory unmapped: %v", err))
	}
	v, err := t.as.Read64(t.entryAddr(idx) + 8)
	if err != nil {
		panic(fmt.Sprintf("pot: table memory unmapped: %v", err))
	}
	return oid.PoolID(p), v
}

func (t *Table) writeEntry(idx uint32, pool oid.PoolID, vbase uint64) {
	if err := t.as.Write32(t.entryAddr(idx), uint32(pool)); err != nil {
		panic(fmt.Sprintf("pot: table memory unmapped: %v", err))
	}
	if err := t.as.Write64(t.entryAddr(idx)+8, vbase); err != nil {
		panic(fmt.Sprintf("pot: table memory unmapped: %v", err))
	}
}

// Insert establishes a pool→base mapping (performed by the OS inside
// pool_create/pool_open). Inserting an already-present pool updates its base.
func (t *Table) Insert(pool oid.PoolID, vbase uint64) error {
	if pool == oid.NullPool {
		return fmt.Errorf("pot: cannot insert reserved pool id 0")
	}
	if t.concurrent {
		defer t.lockAllStripes()()
	}
	idx := t.hash(pool)
	for probed := uint32(0); probed < t.entries; probed++ {
		p, _ := t.readEntry(idx)
		if p == oid.NullPool {
			t.writeEntry(idx, pool, vbase)
			atomic.AddUint32(&t.count, 1)
			return nil
		}
		if p == pool {
			t.writeEntry(idx, pool, vbase)
			return nil
		}
		idx = (idx + 1) & t.mask
	}
	return ErrFull
}

// Remove deletes a pool's mapping (pool_close). Linear-probing deletion uses
// backward shifting so that look-ups can keep treating an invalid entry as
// end-of-chain, exactly as the hardware walk does.
func (t *Table) Remove(pool oid.PoolID) error {
	if t.concurrent {
		defer t.lockAllStripes()()
	}
	idx := t.hash(pool)
	for probed := uint32(0); probed < t.entries; probed++ {
		p, _ := t.readEntry(idx)
		if p == oid.NullPool {
			return fmt.Errorf("pot: remove of unmapped pool %d", pool)
		}
		if p == pool {
			t.backwardShift(idx)
			atomic.AddUint32(&t.count, ^uint32(0))
			return nil
		}
		idx = (idx + 1) & t.mask
	}
	return fmt.Errorf("pot: remove of unmapped pool %d", pool)
}

// backwardShift compacts the probe chain after deleting the entry at hole.
// The chain ends at the first invalid entry — or, in a table that was full,
// when the scan comes round to the hole itself.
func (t *Table) backwardShift(hole uint32) {
	idx := (hole + 1) & t.mask
	for idx != hole {
		p, v := t.readEntry(idx)
		if p == oid.NullPool {
			break
		}
		home := t.hash(p)
		// The entry at idx may move into the hole iff the hole lies
		// cyclically within [home, idx].
		if cyclicallyBetween(home, hole, idx) {
			t.writeEntry(hole, p, v)
			hole = idx
		}
		idx = (idx + 1) & t.mask
	}
	t.writeEntry(hole, oid.NullPool, 0)
}

// cyclicallyBetween reports whether hole ∈ [home, idx] on the ring.
func cyclicallyBetween(home, hole, idx uint32) bool {
	if home <= idx {
		return home <= hole && hole <= idx
	}
	return hole >= home || hole <= idx
}

// Walk performs the hardware POT walk of Figure 7: hash, then linear probing
// until a matching or invalid entry. It returns the pool's virtual base
// address and the number of entries examined. ErrNoTranslation models the
// exception raised when the chain ends at an invalid entry.
func (t *Table) Walk(pool oid.PoolID) (vbase uint64, probes int, err error) {
	if t.concurrent {
		mu := &t.stripes[stripeOf(pool)]
		mu.RLock()
		defer mu.RUnlock()
	}
	idx := t.hash(pool)
	for probed := uint32(0); probed < t.entries; probed++ {
		probes++
		p, v := t.readEntry(idx)
		if p == oid.NullPool {
			t.bumpStats(1, uint64(probes), 1)
			return 0, probes, ErrNoTranslation
		}
		if p == pool {
			t.bumpStats(1, uint64(probes), 0)
			return v, probes, nil
		}
		idx = (idx + 1) & t.mask
	}
	t.bumpStats(1, uint64(probes), 1)
	return 0, probes, ErrNoTranslation
}

// bumpStats credits one walk's counters. The concurrent path uses atomics
// so walks from different goroutines never race; the single-threaded path
// keeps plain adds.
func (t *Table) bumpStats(walks, probes, misses uint64) {
	if t.concurrent {
		atomic.AddUint64(&t.stats.Walks, walks)
		atomic.AddUint64(&t.stats.Probes, probes)
		if misses != 0 {
			atomic.AddUint64(&t.stats.Misses, misses)
		}
		return
	}
	t.stats.Walks += walks
	t.stats.Probes += probes
	t.stats.Misses += misses
}

// ProbeAddrs returns the virtual addresses of the first n entries a walk
// for the pool examines (the linear-probe sequence starting at the hash
// index). Used by the probe-accurate walk-latency model, which charges each
// probed entry as a real memory access instead of the paper's fixed
// 30-cycle walk.
func (t *Table) ProbeAddrs(pool oid.PoolID, n int) []uint64 {
	addrs := make([]uint64, 0, n)
	idx := t.hash(pool)
	for i := 0; i < n; i++ {
		addrs = append(addrs, t.entryAddr(idx))
		idx = (idx + 1) & t.mask
	}
	return addrs
}

// Lookup is Walk without statistics, for software-side queries.
func (t *Table) Lookup(pool oid.PoolID) (vbase uint64, ok bool) {
	if t.concurrent {
		mu := &t.stripes[stripeOf(pool)]
		mu.RLock()
		defer mu.RUnlock()
	}
	idx := t.hash(pool)
	for probed := uint32(0); probed < t.entries; probed++ {
		p, v := t.readEntry(idx)
		if p == oid.NullPool {
			return 0, false
		}
		if p == pool {
			return v, true
		}
		idx = (idx + 1) & t.mask
	}
	return 0, false
}

// Stats returns walk statistics.
func (t *Table) Stats() Stats { return t.stats }

// ResetStats zeroes walk statistics.
//
//potlint:allow unusedexport kept for TestStats
func (t *Table) ResetStats() { t.stats = Stats{} }
