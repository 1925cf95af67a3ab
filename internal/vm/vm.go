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
	"slices"
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
// path (every load, store and POT probe), so the VPN→PFN mapping is an array
// lookup, not a hash map, fronted by a last-VPN memo that short-circuits the
// common same-page access run.
//
// Each mapped region owns its entries, one frame number per page, so the
// table costs four bytes per mapped page and nothing for the arena between
// pools. The top level has one slot per 32 MB span of the arena (3.75 MB per
// address space, a single allocation), pointing at the lowest region that
// overlaps the span. Regions are linked in address order, so a span shared by
// several regions is a short walk. A page outside the arena is unmapped.
const (
	spanShift = 25
	spanSize  = 1 << spanShift
)

// mapping is one mapped region and its page-table entries.
type mapping struct {
	Region
	pfns []uint32 // frame number of each page, in address order
	next *mapping // the next region up the address space, or nil
}

// pageTable maps virtual pages to physical frame numbers.
type pageTable struct {
	top []*mapping // indexed by (va-mmapBase)>>spanShift

	// Last-translation memo. memoPFN is PFN+1; 0 means no memo. noMemo
	// disables the memo for concurrent address spaces: the memo is the
	// page table's only lookup-path mutation, so with it off, concurrent
	// lookups are pure reads.
	memoVPN uint64
	memoPFN uint32
	noMemo  bool
}

// lookup returns the frame number behind the page holding va.
func (pt *pageTable) lookup(va uint64) (uint32, bool) {
	vpn := va >> PageShift
	if pt.memoPFN != 0 && vpn == pt.memoVPN {
		return pt.memoPFN - 1, true
	}
	m := pt.find(va)
	if m == nil {
		return 0, false
	}
	pfn := m.pfns[(va-m.Base)>>PageShift]
	if !pt.noMemo {
		pt.memoVPN, pt.memoPFN = vpn, pfn+1
	}
	return pfn, true
}

// find returns the region containing va, or nil.
func (pt *pageTable) find(va uint64) *mapping {
	if va-mmapBase >= mmapSpan {
		return nil
	}
	m := pt.top[(va-mmapBase)>>spanShift]
	for m != nil && m.End() <= va {
		m = m.next
	}
	if m == nil || m.Base > va {
		return nil
	}
	return m
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
	regions  []*mapping // sorted by Base; mappings never overlap, so by End too
}

// NewAddressSpace creates an empty address space. The seed drives ASLR
// placement so runs are reproducible.
func NewAddressSpace(seed int64) *AddressSpace {
	return &AddressSpace{
		rng: rand.New(rand.NewSource(seed)),
		pageTable: pageTable{
			top: make([]*mapping, mmapSpan>>spanShift),
		},
	}
}

// SetConcurrent prepares the address space for access from multiple
// goroutines: the last-translation memo is switched off (and cleared), so
// Translate/ReadAt/WriteAt on mapped pages become read-only with respect to
// the page table and may run concurrently. Structural operations
// (Map/Unmap) still require external serialization — under the
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
	m := &mapping{Region: Region{Base: base, Size: size}, pfns: make([]uint32, size>>PageShift)}
	for i := range m.pfns {
		m.pfns[i] = as.allocFrame()
	}
	as.insertRegion(m)
	return m.Region, nil
}

// Unmap removes a previously mapped region and frees its frames.
func (as *AddressSpace) Unmap(r Region) error {
	idx := as.regionAfter(r.Base)
	if idx == len(as.regions) || as.regions[idx].Region != r {
		return fmt.Errorf("vm: Unmap of unknown region %#x+%#x", r.Base, r.Size)
	}
	m := as.regions[idx]
	as.regions = slices.Delete(as.regions, idx, idx+1)
	if idx > 0 {
		as.regions[idx-1].next = m.next
	}
	as.relead(r)
	as.pageTable.memoPFN = 0
	for _, pfn := range m.pfns {
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
	pfn, ok := as.pageTable.lookup(va)
	if !ok {
		return 0, false
	}
	return uint64(pfn)<<PageShift | va&PageMask, true
}

// MappedBytes returns the total number of bytes currently mapped.
func (as *AddressSpace) MappedBytes() uint64 {
	var n uint64
	for _, m := range as.regions {
		n += m.Size
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
	pfn, ok := as.pageTable.lookup(va)
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

// insertRegion links in a region that overlaps no existing one.
func (as *AddressSpace) insertRegion(m *mapping) {
	i := as.regionAfter(m.Base)
	as.regions = slices.Insert(as.regions, i, m)
	if i > 0 {
		as.regions[i-1].next = m
	}
	if i+1 < len(as.regions) {
		m.next = as.regions[i+1]
	}
	as.relead(m.Region)
}

// relead points each span that r overlaps at the lowest region overlapping
// it, after r is mapped or unmapped.
func (as *AddressSpace) relead(r Region) {
	for va := r.Base &^ (spanSize - 1); va < r.End(); va += spanSize {
		var lead *mapping
		if i := as.regionAfter(va); i < len(as.regions) && as.regions[i].Base < va+spanSize {
			lead = as.regions[i]
		}
		as.pageTable.top[(va-mmapBase)>>spanShift] = lead
	}
}

// RegionOf returns the mapped region containing va, if any.
func (as *AddressSpace) RegionOf(va uint64) (Region, bool) {
	if m := as.pageTable.find(va); m != nil {
		return m.Region, true
	}
	return Region{}, false
}
