// Package pmem implements the persistent-memory programming library of the
// paper's Table 1 — pool management, object management (a persistent
// free-list allocator), ObjectID translation, durability (persist = CLWB +
// SFENCE) and failure-safety (write-ahead undo-log transactions) — with the
// two compilation modes of the evaluation:
//
//   - BASE: every persistent dereference emits the software oid_direct
//     sequence (emit.SoftTranslator) followed by ordinary loads/stores on
//     the translated virtual address.
//   - OPT: every persistent dereference emits nvld/nvst instructions that
//     the hardware POLB/POT translate.
//
// All data is functionally real: pools are sparse, page-granular byte images
// mapped into the simulated address space, allocator metadata and undo logs
// live inside the pools, and crash recovery replays the persisted log bytes.
package pmem

import (
	"fmt"

	"potgo/internal/oid"
	"potgo/internal/vm"
)

// backing is the "file" behind a pool: the durable bytes that survive
// pool_close/pool_open cycles (and simulated crashes), plus the pool's
// system-wide identity.
type backing struct {
	name string
	id   oid.PoolID
	// pages is the durable image, one entry per 4 KiB of the pool. Like a
	// sparse file it is demand-zero: a nil page is all zeros and costs
	// nothing, and a page is allocated by the first durable write into it.
	// A line or an 8-byte word never straddles a page, so every accessor
	// resolves its page once.
	//
	// Map-time invariant: mapPool copies every existing page into the
	// pool's frames, so while a pool is mapped an untouched frame implies an
	// absent (all-zero) durable page, and SyncPool and unmapPool copy back
	// only the frames that were written (see writeBack).
	pages    []*vm.Page
	size     uint64
	logBytes uint64
	// parityBytes is the size of the XOR-parity column between the undo
	// log and the data region; zero for pools created without media-fault
	// tolerance. Immutable after create, like logBytes.
	parityBytes uint64
	open        bool
}

// Store is the durable home of every pool ever created — the moral
// equivalent of the NVM-backed filesystem that pool files live on. Pool ids
// are unique, system-wide, and stable across close/open (paper §2.1.2).
type Store struct {
	byName map[string]*backing
	nextID uint32
}

// NewStore creates an empty pool store.
func NewStore() *Store {
	return &Store{byName: make(map[string]*backing), nextID: 1}
}

// Exists reports whether a pool of that name has been created.
func (s *Store) Exists(name string) bool {
	_, ok := s.byName[name]
	return ok
}

func (s *Store) create(name string, size, logBytes, parityBytes uint64) (*backing, error) {
	if _, ok := s.byName[name]; ok {
		return nil, fmt.Errorf("pmem: pool %q already exists", name)
	}
	if s.nextID == 0 { // wrapped past 2^32-1
		return nil, fmt.Errorf("pmem: pool id space exhausted")
	}
	b := &backing{
		name:        name,
		id:          oid.PoolID(s.nextID),
		pages:       make([]*vm.Page, (size+vm.PageMask)>>vm.PageShift),
		size:        size,
		logBytes:    logBytes,
		parityBytes: parityBytes,
	}
	s.nextID++
	s.byName[name] = b
	return b, nil
}

// page returns the durable page holding byte offset off, or nil if nothing
// was ever written there (it reads as zeros).
func (b *backing) page(off uint32) *vm.Page { return b.pages[off>>vm.PageShift] }

// pageForWrite returns the durable page holding byte offset off, allocating
// it on first use.
func (b *backing) pageForWrite(off uint32) *vm.Page {
	pg := b.pages[off>>vm.PageShift]
	if pg == nil {
		pg = new(vm.Page)
		b.pages[off>>vm.PageShift] = pg
	}
	return pg
}

// bytes materialises the durable image as flat bytes.
func (b *backing) bytes() []byte {
	out := make([]byte, b.size)
	for i, pg := range b.pages {
		if pg != nil {
			copy(out[i<<vm.PageShift:], pg[:])
		}
	}
	return out
}

// ResidentBytes returns the memory held by the durable pages of every pool in
// the store that have been written.
func (s *Store) ResidentBytes() uint64 {
	var n uint64
	for _, b := range s.byName {
		for _, pg := range b.pages {
			if pg != nil {
				n += vm.PageSize
			}
		}
	}
	return n
}

func (s *Store) lookup(name string) (*backing, error) {
	b, ok := s.byName[name]
	if !ok {
		return nil, fmt.Errorf("pmem: pool %q does not exist", name)
	}
	return b, nil
}

// DumpBytes returns a copy of every pool's durable bytes keyed by pool name.
// Only the durable view is captured — call Heap.SyncAll first if the cache
// view must be included. Pool contents are position-independent (object
// references are stored as OIDs, never as virtual addresses), so two runs of
// the same workload under different translation modes must dump identically.
func (s *Store) DumpBytes() map[string][]byte {
	out := make(map[string][]byte, len(s.byName))
	for name, b := range s.byName {
		out[name] = b.bytes()
	}
	return out
}

// Delete removes a closed pool from the store (not part of the paper's API,
// but needed for cleanup in long-running hosts).
func (s *Store) Delete(name string) error {
	b, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("pmem: pool %q does not exist", name)
	}
	if b.open {
		return fmt.Errorf("pmem: pool %q is open", name)
	}
	delete(s.byName, name)
	return nil
}
