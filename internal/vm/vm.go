// Package vm implements the simulated virtual address space that persistent
// pools and volatile program data live in.
//
// The model mirrors the paper's Figure 2: every pool is mapped, in its
// entirety, somewhere in a process's virtual address space (at an
// ASLR-randomized location — relocatability under ASLR is the whole point of
// ObjectIDs), and each 4 KB virtual page is individually mapped to a physical
// frame number by a conventional page table. Frame numbers are assigned when
// a region is mapped, because the physical address (PFN << 12) feeds cache
// indexing and Parallel-POLB tags and so must not depend on access order; the
// bytes behind a frame are demand-zero, as under a real mmap: a page costs
// memory from its first write on, and a page never written reads as zeros.
// Resident frames carry real bytes, so functional execution (allocator
// metadata, undo logs, serialized objects) happens in this memory.
package vm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
)

// Page geometry shared with the cache/TLB models.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// mmapBase/mmapSpan delimit the randomized mmap arena, loosely modelled on
// the x86-64 user address space.
const (
	mmapBase = 0x0000_7000_0000_0000
	mmapSpan = 0x0000_0f00_0000_0000
)

// Page-table geometry: translations are on the per-simulated-instruction hot
// path (every load, store and POT probe), so the VPN→PFN mapping is a
// two-level radix array over the mmap arena instead of a hash map, fronted by
// a last-VPN memo that short-circuits the common same-page access run.
//
// Leaf entries store PFN+1 so the zero value means "unmapped" and a leaf is
// usable straight from the allocator. A leaf covers 2^ptLeafBits pages
// (32 MB of virtual space at 16 KB per leaf), and the top level is one
// pointer per possible leaf of the arena (~3.7 MB per address space, a single
// allocation). The rare mapping outside the arena (MapFixed at a
// caller-chosen low address — tests) falls back to a small map.
const (
	ptLeafBits = 13
	ptLeafSize = 1 << ptLeafBits
	ptLeafMask = ptLeafSize - 1

	arenaVPNBase = mmapBase >> PageShift
	arenaVPNs    = mmapSpan >> PageShift
)

type ptLeaf [ptLeafSize]uint32

// pageTable maps virtual page numbers to physical frame numbers.
type pageTable struct {
	top []*ptLeaf         // arena leaves, indexed by (vpn-arenaVPNBase)>>ptLeafBits
	out map[uint64]uint32 // out-of-arena VPNs (MapFixed; cold), PFN+1

	// Last-translation memo. memoPFN is PFN+1; 0 means no memo. noMemo
	// disables the memo for concurrent address spaces: the memo is the
	// page table's only lookup-path mutation, so with it off, concurrent
	// lookups are pure reads.
	memoVPN uint64
	memoPFN uint32
	noMemo  bool
}

func (pt *pageTable) lookup(vpn uint64) (uint32, bool) {
	if pt.memoPFN != 0 && vpn == pt.memoVPN {
		return pt.memoPFN - 1, true
	}
	var e uint32
	if rel := vpn - arenaVPNBase; rel < arenaVPNs {
		leaf := pt.top[rel>>ptLeafBits]
		if leaf == nil {
			return 0, false
		}
		e = leaf[rel&ptLeafMask]
	} else {
		e = pt.out[vpn]
	}
	if e == 0 {
		return 0, false
	}
	if !pt.noMemo {
		pt.memoVPN, pt.memoPFN = vpn, e
	}
	return e - 1, true
}

func (pt *pageTable) set(vpn uint64, pfn uint32) {
	if rel := vpn - arenaVPNBase; rel < arenaVPNs {
		leaf := pt.top[rel>>ptLeafBits]
		if leaf == nil {
			leaf = new(ptLeaf)
			pt.top[rel>>ptLeafBits] = leaf
		}
		leaf[rel&ptLeafMask] = pfn + 1
		return
	}
	if pt.out == nil {
		pt.out = make(map[uint64]uint32)
	}
	pt.out[vpn] = pfn + 1
}

// clear unmaps vpn, returning its PFN (ok=false if it was not mapped).
func (pt *pageTable) clear(vpn uint64) (uint32, bool) {
	if pt.memoPFN != 0 && vpn == pt.memoVPN {
		pt.memoPFN = 0
	}
	if rel := vpn - arenaVPNBase; rel < arenaVPNs {
		leaf := pt.top[rel>>ptLeafBits]
		if leaf == nil || leaf[rel&ptLeafMask] == 0 {
			return 0, false
		}
		pfn := leaf[rel&ptLeafMask] - 1
		leaf[rel&ptLeafMask] = 0
		return pfn, true
	}
	e, ok := pt.out[vpn]
	if !ok {
		return 0, false
	}
	delete(pt.out, vpn)
	return e - 1, true
}

// Region describes one mapped virtual range.
type Region struct {
	Base uint64
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

func (r Region) overlaps(o Region) bool { return r.Base < o.End() && o.Base < r.End() }

// Page is the bytes of one resident page. The persistent-memory library keeps
// a pool's durable image in the same unit, so the two views of a pool are
// copied page for page.
type Page [PageSize]byte

// AddressSpace is one process's virtual address space plus the physical
// memory behind it.
type AddressSpace struct {
	rng       *rand.Rand
	pageTable pageTable
	// frames holds the page behind each PFN, nil until the frame's first
	// write. A page is published with one compare-and-swap, so first touches
	// of distinct frames may run concurrently (SetConcurrent).
	frames   []atomic.Pointer[Page]
	freePFNs []uint32
	regions  []Region // sorted by Base; mappings never overlap, so by End too
}

// NewAddressSpace creates an empty address space. The seed drives ASLR
// placement so runs are reproducible.
func NewAddressSpace(seed int64) *AddressSpace {
	return &AddressSpace{
		rng: rand.New(rand.NewSource(seed)),
		pageTable: pageTable{
			top: make([]*ptLeaf, (arenaVPNs+ptLeafSize-1)>>ptLeafBits),
		},
	}
}

// SetConcurrent prepares the address space for access from multiple
// goroutines: the last-translation memo is switched off (and cleared), so
// Translate/ReadAt/WriteAt on mapped pages become read-only with respect to
// the page table and may run concurrently. Structural operations
// (Map/MapFixed/Unmap) still require external serialization — under the
// sharded heap they run stop-the-world.
func (as *AddressSpace) SetConcurrent() {
	as.pageTable.noMemo = true
	as.pageTable.memoPFN = 0
}

// Map allocates a page-aligned virtual region of at least size bytes at an
// ASLR-randomized address, assigns every page a physical frame number, and
// returns the region. The region reads as zeros and holds no memory until it
// is written.
func (as *AddressSpace) Map(size uint64) (Region, error) {
	if size == 0 {
		return Region{}, fmt.Errorf("vm: cannot map empty region")
	}
	size = (size + PageMask) &^ uint64(PageMask)
	var base uint64
	for attempt := 0; ; attempt++ {
		if attempt == 4096 {
			return Region{}, fmt.Errorf("vm: no room for %d-byte mapping", size)
		}
		base = mmapBase + (uint64(as.rng.Int63n(mmapSpan/PageSize)) * PageSize)
		if base+size <= mmapBase+mmapSpan && !as.overlapsAny(Region{base, size}) {
			break
		}
	}
	r := Region{Base: base, Size: size}
	as.insertRegion(r)
	for va := base; va < base+size; va += PageSize {
		as.pageTable.set(va>>PageShift, as.allocFrame())
	}
	return r, nil
}

// MapFixed maps a region at a caller-chosen base (used by tests and by the
// volatile-globals arena, which wants a stable address). The base must be
// page-aligned and the region must not overlap an existing mapping.
func (as *AddressSpace) MapFixed(base, size uint64) (Region, error) {
	if base&PageMask != 0 {
		return Region{}, fmt.Errorf("vm: MapFixed base %#x not page-aligned", base)
	}
	if size == 0 {
		return Region{}, fmt.Errorf("vm: cannot map empty region")
	}
	size = (size + PageMask) &^ uint64(PageMask)
	r := Region{Base: base, Size: size}
	if as.overlapsAny(r) {
		return Region{}, fmt.Errorf("vm: MapFixed %#x+%#x overlaps existing mapping", base, size)
	}
	as.insertRegion(r)
	for va := base; va < base+size; va += PageSize {
		as.pageTable.set(va>>PageShift, as.allocFrame())
	}
	return r, nil
}

// Unmap removes a previously mapped region and frees its frames.
func (as *AddressSpace) Unmap(r Region) error {
	idx := as.regionAfter(r.Base)
	if idx == len(as.regions) || as.regions[idx] != r {
		return fmt.Errorf("vm: Unmap of unknown region %#x+%#x", r.Base, r.Size)
	}
	as.regions = append(as.regions[:idx], as.regions[idx+1:]...)
	for va := r.Base; va < r.End(); va += PageSize {
		pfn, ok := as.pageTable.clear(va >> PageShift)
		if !ok {
			continue
		}
		// Dropping the page is what makes the recycled frame read as zeros.
		as.frames[pfn].Store(nil)
		as.freePFNs = append(as.freePFNs, pfn)
	}
	return nil
}

// Translate converts a virtual address to a physical address via the page
// table. ok is false for unmapped addresses (the moral equivalent of a page
// fault on an untouched address).
func (as *AddressSpace) Translate(va uint64) (pa uint64, ok bool) {
	pfn, ok := as.pageTable.lookup(va >> PageShift)
	if !ok {
		return 0, false
	}
	return uint64(pfn)<<PageShift | va&PageMask, true
}

// Mapped reports whether the virtual address lies in a mapped region.
func (as *AddressSpace) Mapped(va uint64) bool {
	_, ok := as.pageTable.lookup(va >> PageShift)
	return ok
}

// MappedBytes returns the total number of bytes currently mapped.
func (as *AddressSpace) MappedBytes() uint64 {
	var n uint64
	for _, r := range as.regions {
		n += r.Size
	}
	return n
}

// ResidentBytes returns the memory held by pages that have been written.
func (as *AddressSpace) ResidentBytes() uint64 {
	var n uint64
	for i := range as.frames {
		if as.frames[i].Load() != nil {
			n += PageSize
		}
	}
	return n
}

// ReadAt copies len(buf) bytes starting at virtual address va into buf,
// crossing page boundaries as needed. Reading a page that was never written
// yields zeros and leaves it non-resident.
func (as *AddressSpace) ReadAt(va uint64, buf []byte) error {
	for len(buf) > 0 {
		slot, off, err := as.frameFor(va)
		if err != nil {
			return err
		}
		var n int
		if pg := slot.Load(); pg != nil {
			n = copy(buf, pg[off:])
		} else {
			n = min(len(buf), PageSize-int(off))
			clear(buf[:n])
		}
		buf = buf[n:]
		va += uint64(n)
	}
	return nil
}

// WriteAt copies data into memory starting at virtual address va, making
// every page it touches resident.
func (as *AddressSpace) WriteAt(va uint64, data []byte) error {
	for len(data) > 0 {
		slot, off, err := as.frameFor(va)
		if err != nil {
			return err
		}
		pg := slot.Load()
		if pg == nil {
			pg = new(Page)
			if !slot.CompareAndSwap(nil, pg) {
				pg = slot.Load()
			}
		}
		n := copy(pg[off:], data)
		data = data[n:]
		va += uint64(n)
	}
	return nil
}

// ResidentPage returns the page behind the page-aligned address va for
// reading, or nil if it is unmapped or was never written.
func (as *AddressSpace) ResidentPage(va uint64) *Page {
	slot, _, err := as.frameFor(va)
	if err != nil {
		return nil
	}
	return slot.Load()
}

// Read64 reads a little-endian uint64 at va.
func (as *AddressSpace) Read64(va uint64) (uint64, error) {
	var b [8]byte
	if err := as.ReadAt(va, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Write64 writes a little-endian uint64 at va.
func (as *AddressSpace) Write64(va uint64, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.WriteAt(va, b[:])
}

// Read32 reads a little-endian uint32 at va.
func (as *AddressSpace) Read32(va uint64) (uint32, error) {
	var b [4]byte
	if err := as.ReadAt(va, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// Write32 writes a little-endian uint32 at va.
func (as *AddressSpace) Write32(va uint64, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return as.WriteAt(va, b[:])
}

// frameFor returns the frame slot and in-page offset behind va.
func (as *AddressSpace) frameFor(va uint64) (*atomic.Pointer[Page], uint64, error) {
	pfn, ok := as.pageTable.lookup(va >> PageShift)
	if !ok {
		return nil, 0, fmt.Errorf("vm: access to unmapped address %#x", va)
	}
	return &as.frames[pfn], va & PageMask, nil
}

// allocFrame hands out a frame number: the most recently freed one, else the
// next never-used one. The order is part of every simulated statistic.
func (as *AddressSpace) allocFrame() uint32 {
	if n := len(as.freePFNs); n > 0 {
		pfn := as.freePFNs[n-1]
		as.freePFNs = as.freePFNs[:n-1]
		return pfn
	}
	as.frames = append(as.frames, atomic.Pointer[Page]{})
	return uint32(len(as.frames) - 1)
}

// regionAfter returns the index of the first region that ends past va — the
// only region that can contain va — or len(as.regions).
func (as *AddressSpace) regionAfter(va uint64) int {
	return sort.Search(len(as.regions), func(i int) bool { return as.regions[i].End() > va })
}

func (as *AddressSpace) overlapsAny(r Region) bool {
	i := as.regionAfter(r.Base)
	return i < len(as.regions) && as.regions[i].overlaps(r)
}

// insertRegion adds a region that overlaps no existing one.
func (as *AddressSpace) insertRegion(r Region) {
	i := as.regionAfter(r.Base)
	as.regions = append(as.regions, Region{})
	copy(as.regions[i+1:], as.regions[i:])
	as.regions[i] = r
}

// RegionOf returns the mapped region containing va, if any.
func (as *AddressSpace) RegionOf(va uint64) (Region, bool) {
	if i := as.regionAfter(va); i < len(as.regions) && as.regions[i].Base <= va {
		return as.regions[i], true
	}
	return Region{}, false
}
