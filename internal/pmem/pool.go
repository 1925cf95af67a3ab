package pmem

import (
	"fmt"

	"potgo/internal/oid"
	"potgo/internal/vm"
)

// Persistent pool layout. The first page is the header; an undo-log region
// follows; object data fills the rest. All header fields are 8-byte words so
// that every metadata access is a single persistent load/store.
//
//	0x00  magic
//	0x08  pool size in bytes
//	0x10  bump pointer (offset of the next never-allocated byte)
//	0x18  root object offset (0 = not yet created)
//	0x20  root object size
//	0x28  log region size in bytes
//	0x30  free-list heads, one word per size class
//	0x78  parity region size in bytes (0 = no media-fault tolerance)
//	...
//	0x1000                        undo log: [count][state][records...]
//	0x1000+logBytes               XOR-parity column (fault-tolerant pools)
//	0x1000+logBytes+parityBytes   object data
const (
	poolMagic      = 0x504f4f4c_474f4f44 // "POOLGOOD"
	offMagic       = 0
	offSize        = 8
	offBump        = 16
	offRootOff     = 24
	offRootSize    = 32
	offLogBytes    = 40
	offFreeHead    = 48  // + 8*class
	offParityBytes = 120 // first word past the free heads
	headerBytes    = vm.PageSize
	logStart       = headerBytes
)

// Undo-log region layout (offsets relative to logStart). The count word
// publishes records; the state word is the commit marker that decides
// whether recovery undoes (active) or redoes (committed) the logged
// transaction. Count and state share a cache line but are separate 8-byte
// words, so each is atomic even under torn-line crashes.
const (
	logOffCount   = 0
	logOffState   = 8
	logOffRecords = 16

	txStateActive    = 0 // records describe an uncommitted transaction: undo
	txStateCommitted = 1 // data is durable, deferred frees may be half-applied: redo
)

// sizeClasses are the slab allocator's size classes (payload bytes). Larger
// requests are bump-allocated exactly.
var sizeClasses = [...]uint32{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// classSlots is each class's preferred slots-per-span count (shrunk to fit
// when the pool's remaining space is smaller). At most 64 so one bitmap
// word covers a span.
var classSlots = [...]uint32{64, 64, 32, 16, 8, 4, 2, 1, 1}

// Slab span on-media layout: a 24-byte header followed — in fault-tolerant
// pools — by a per-slot CRC32C checksum array (4 bytes per slot, rounded up
// to a whole word), then slots*classSize payload bytes.
//
//	word 0  spanMagic<<32 | ft<<24 | slots<<8 | class
//	word 1  pool offset of the next span in this class's chain (0 = end)
//	word 2  occupancy bitmap, bit i = slot i is allocated
//	[ft]    checksum array: uint32 CRC32C of slot i's full payload
const (
	spanMagic       = 0x53504131 // "SPA1"
	spanHeaderBytes = 24
	spanOffWord0    = 0
	spanOffNext     = 8
	spanOffBitmap   = 16
	spanOffCsum     = 24 // + 4*slot, fault-tolerant spans only
	spanFTBit       = 1 << 24
)

// spanHdrBytes returns the full header size of a span: the fixed 24 bytes
// plus, for fault-tolerant spans, the word-rounded checksum array.
func spanHdrBytes(slots uint32, ft bool) uint32 {
	if !ft {
		return spanHeaderBytes
	}
	return spanHeaderBytes + (4*slots+7)&^7
}

// spanWord0 encodes a span header's first word.
func spanWord0(class int, slots uint32, ft bool) uint64 {
	w := uint64(spanMagic)<<32 | uint64(slots)<<8 | uint64(class)
	if ft {
		w |= spanFTBit
	}
	return w
}

// parseSpanWord0 decodes a span header word, rejecting bad magic or fields.
func parseSpanWord0(w uint64) (class int, slots uint32, ft, ok bool) {
	if w>>32 != spanMagic {
		return 0, 0, false, false
	}
	class = int(w & 0xff)
	slots = uint32(w>>8) & 0xffff
	ft = w&spanFTBit != 0
	if class >= len(sizeClasses) || slots == 0 || slots > 64 {
		return 0, 0, false, false
	}
	return class, slots, ft, true
}

// DefaultLogBytes is the default undo-log capacity per pool. Kept small so
// the EACH pattern (hundreds of single-object pools) stays cheap; the log
// only ever needs to hold one transaction's undo records.
const DefaultLogBytes = 8 * 1024

// MinPoolBytes is the smallest legal pool: header + log + one data page.
func MinPoolBytes(logBytes uint64) uint64 { return headerBytes + logBytes + vm.PageSize }

// Pool is an open pool mapped into the process's address space.
type Pool struct {
	h      *Heap
	b      *backing
	region vm.Region
	// alloc is the volatile slab index, rebuilt from the durable span
	// chains when the pool is mapped.
	alloc *allocState
	// mvcc marks the pool as snapshot-versioned: commits touching it
	// publish post-images into the heap's epoch mirror (see mvcc.go).
	mvcc bool
}

// ID returns the pool's system-wide identifier.
func (p *Pool) ID() oid.PoolID { return p.b.id }

// Name returns the name the pool was created under.
func (p *Pool) Name() string { return p.b.name }

// Base returns the virtual address the pool is currently mapped at.
func (p *Pool) Base() uint64 { return p.region.Base }

// Size returns the pool size in bytes.
//
//potlint:allow unusedexport kept for TestCreateOpenClose
func (p *Pool) Size() uint64 { return p.b.size }

// dataStart is the offset of the first allocatable byte (past the parity
// column, which is empty for pools without media-fault tolerance).
func (p *Pool) dataStart() uint64 { return logStart + p.b.logBytes + p.b.parityBytes }

// LogBytes returns the pool's undo-log region capacity.
func (p *Pool) LogBytes() uint64 { return p.b.logBytes }

// LogStart is the pool offset where the log region begins (after the header
// page). Exported for applications that manage their own log in the region,
// like the TPC-C workload's logical transaction log.
const LogStart = logStart

// OID forms an ObjectID for an offset within this pool.
func (p *Pool) OID(off uint32) oid.OID { return oid.New(p.b.id, off) }

// classOf returns the size-class index for a payload size, or -1 for large
// (bump-only) allocations, along with the class payload size.
func classOf(size uint32) (int, uint32) {
	for i, c := range sizeClasses {
		if size <= c {
			return i, c
		}
	}
	// Large: exact size rounded to 16.
	return -1, (size + 15) &^ 15
}

func (p *Pool) freeHeadOff(class int) uint32 {
	return uint32(offFreeHead + 8*class)
}

// checkOffset validates that an object offset lies in the data region.
func (p *Pool) checkOffset(off uint32, size uint32) error {
	if uint64(off) < p.dataStart() || uint64(off)+uint64(size) > p.b.size {
		return fmt.Errorf("pmem: offset %#x+%d outside pool %q data region", off, size, p.b.name)
	}
	return nil
}
