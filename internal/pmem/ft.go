package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync/atomic"

	"potgo/internal/nvmsim"
	"potgo/internal/oid"
	"potgo/internal/vm"
)

// Media-fault tolerance (Pangolin-style, see DESIGN.md §5i). A pool created
// with CreateSizedFT carries two derived structures:
//
//   - a per-object CRC32C in each span header's checksum array, recomputed
//     for every object a transaction touched inside the commit fence, so
//     checksum state is exactly as crash-consistent as the data it covers;
//   - an XOR-parity column between the undo log and the data region: one
//     parity line per parityStride data-region lines, also recomputed for
//     every touched group inside the commit fence.
//
// A flipped bit in an object payload trips the checksum (VerifyOnRead or
// scrub); the payload is then rebuilt line-by-line from parity and the
// group's surviving lines and validated against the stored CRC before it
// is written back. A flipped bit in a checksum word is the mirror image:
// the checksum line is itself parity-covered, so it is rebuilt from parity
// and validated against the recomputed payload CRC. A flipped bit in a
// parity line is found by the scrub's group sweep (every object clean but
// the group XOR off) and rewritten. The fault model is one fault per
// parity group; pool header, log region and span header words are outside
// it (the injector never targets them, and CheckPool still catches them).

// parityStride is the number of data-region lines covered by one parity
// line.
const parityStride = 8

// ErrCorrupt is the sentinel all corruption failures wrap: a stored
// checksum disagreed with the object's bytes and repair was not possible
// (or not attempted, as on the VerifyOnRead path).
var ErrCorrupt = errors.New("pmem: object corrupt")

// CorruptError identifies the corrupt object. errors.Is(err, ErrCorrupt)
// matches it.
type CorruptError struct{ OID oid.OID }

func (e *CorruptError) Error() string {
	return fmt.Sprintf("pmem: object %v failed checksum verification", e.OID)
}

//potlint:allow unusedexport errors.Is calls it through an anonymous interface
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// castagnoli is the CRC32C table (memoized once; crc32.Update with it
// allocates nothing).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ft reports whether the pool carries checksums and a parity column.
func (p *Pool) ft() bool { return p.b.parityBytes != 0 }

// FaultTolerant reports whether the pool was created with media-fault
// tolerance (CreateSizedFT).
func (p *Pool) FaultTolerant() bool { return p.ft() }

// parityStart is the pool offset of the parity column.
func (p *Pool) parityStart() uint32 { return uint32(logStart + p.b.logBytes) }

// groupOf maps a data-region offset to its parity group.
func (p *Pool) groupOf(off uint32) uint32 {
	return (off - uint32(p.dataStart())) / nvmsim.LineBytes / parityStride
}

// groupStart is the pool offset of the group's first data line.
func (p *Pool) groupStart(g uint32) uint32 {
	return uint32(p.dataStart()) + g*parityStride*nvmsim.LineBytes
}

// parityLineOff is the pool offset of the group's parity line.
func (p *Pool) parityLineOff(g uint32) uint32 {
	return p.parityStart() + g*nvmsim.LineBytes
}

// ftParityBytes sizes the parity column so every data-region line has a
// parity line over it: ceil(availLines / (stride+1)) lines of parity.
func ftParityBytes(size, logBytes uint64) uint64 {
	if size <= logStart+logBytes {
		return 0
	}
	avail := size - logStart - logBytes
	availLines := (avail + nvmsim.LineBytes - 1) / nvmsim.LineBytes
	parityLines := (availLines + parityStride) / (parityStride + 1)
	return parityLines * nvmsim.LineBytes
}

// CreateSizedFT is CreateSized with media-fault tolerance: per-object
// CRC32C checksums in the span headers and an XOR-parity column sized for
// the pool. The layout cost is the parity column (one line per
// parityStride data lines, ~11%) plus 4 checksum bytes per slab slot.
func (h *Heap) CreateSizedFT(name string, size, logBytes uint64) (*Pool, error) {
	parityBytes := ftParityBytes(size, logBytes)
	if size < MinPoolBytes(logBytes)+parityBytes {
		return nil, fmt.Errorf("pmem: pool size %d below fault-tolerant minimum %d",
			size, MinPoolBytes(logBytes)+parityBytes)
	}
	return h.createPool(name, size, logBytes, parityBytes)
}

// SetFTDefault makes every subsequent Create/CreateSized produce a
// fault-tolerant pool, growing the requested size by the parity column so
// the pool's data capacity matches what a plain pool of that size would
// give. Workload and application code that sizes its pools for plain
// layout can then run unchanged over FT storage — the harness uses this
// to measure the checksum+parity overhead of whole benchmarks rather
// than plumbing an FT flag through every pool-creating call site.
func (h *Heap) SetFTDefault(on bool) { h.ftDefault = on }

// ftGrow returns a pool size whose FT layout leaves at least the data
// capacity of a plain pool of the requested size. The parity column is a
// function of the grown size, so one fixed-point step (plus a safety
// iteration for the rounding) suffices.
func ftGrow(size, logBytes uint64) uint64 {
	grown := size
	for i := 0; i < 4; i++ {
		pb := ftParityBytes(grown, logBytes)
		if grown-pb >= size {
			return grown
		}
		grown = size + pb + nvmsim.LineBytes
	}
	return grown
}

// SetVerifyOnRead makes every Deref of a slab object in a fault-tolerant
// pool verify the stored CRC32C first, returning a CorruptError on
// mismatch. The check stands down while any transaction is open (checksums
// are only recomputed at commit, so mid-transaction bytes legitimately
// disagree) and skips non-FT pools, bump allocations and free slots.
// Enable it only after the pool's derived state is valid (after RebuildFT
// for freshly set-up pools). The default-off path costs one branch.
func (h *Heap) SetVerifyOnRead(on bool) { h.verifyOnRead = on }

// MutateNoParity disables parity-column maintenance — a deliberately
// injected bug for the CI mutation check: with it on, the repair campaign
// must fail, proving the detector detects.
func (h *Heap) MutateNoParity(on bool) { h.ftNoParity = on }

// verifyOnDeref is the VerifyOnRead hook (see SetVerifyOnRead).
func (h *Heap) verifyOnDeref(o oid.OID) error {
	if atomic.LoadInt32(&h.txActive) != 0 {
		return nil
	}
	p, ok := h.open[o.Pool()]
	if !ok || !p.ft() {
		return nil
	}
	idx, slot, ok := p.alloc.lookup(o.Offset())
	if !ok {
		return nil
	}
	sp := p.alloc.spans[idx]
	if !h.slabBit(p, sp, slot) {
		return nil
	}
	crc, err := h.crcSlot(p, sp, slot)
	if err != nil {
		return err
	}
	if crc == h.readCsum(p, sp, slot) {
		return nil
	}
	return &CorruptError{OID: p.OID(sp.slotOff(slot))}
}

// crcSlot computes CRC32C over a slot's full payload from the cache view
// (functional reads; verification models hardware-side checking off the
// instruction stream). Chunked through a stack buffer: no allocation.
func (h *Heap) crcSlot(p *Pool, sp spanInfo, slot uint32) (uint32, error) {
	off := sp.slotOff(slot)
	size := sp.classSize()
	var buf [256]byte
	crc := uint32(0)
	for done := uint32(0); done < size; {
		n := size - done
		if n > uint32(len(buf)) {
			n = uint32(len(buf))
		}
		if err := h.AS.ReadAt(p.region.Base+uint64(off+done), buf[:n]); err != nil {
			return 0, err
		}
		crc = crc32.Update(crc, castagnoli, buf[:n])
		done += n
	}
	return crc, nil
}

// readCsum reads a slot's stored checksum (functional).
func (h *Heap) readCsum(p *Pool, sp spanInfo, slot uint32) uint32 {
	w := h.read64(p, sp.csumOff(slot)&^7)
	if sp.csumOff(slot)&7 != 0 {
		return uint32(w >> 32)
	}
	return uint32(w)
}

// ftWriteCsumNoFence stores a slot's checksum with a persistent
// read-modify-write of its 8-byte word (two checksums share a word) and
// queues the word's write-back; the caller owns the fence.
func (h *Heap) ftWriteCsumNoFence(p *Pool, sp spanInfo, slot uint32, crc uint32) error {
	wordOff := sp.csumOff(slot) &^ 7
	ref := h.DirectRef(p, wordOff)
	w, err := ref.Load64(0)
	if err != nil {
		return err
	}
	v := (w.V &^ 0xffffffff) | uint64(crc)
	if sp.csumOff(slot)&7 != 0 {
		v = (w.V & 0xffffffff) | uint64(crc)<<32
	}
	r := h.Emit.Compute(2, w.Reg)
	if err := ref.Store64(0, v, r); err != nil {
		return err
	}
	return h.persistNoFence(p.OID(wordOff), 8)
}

// readLinePadded reads one cache-view line, zero-padding past the pool end.
func (h *Heap) readLinePadded(p *Pool, off uint32, dst *[nvmsim.LineBytes]byte) error {
	*dst = [nvmsim.LineBytes]byte{}
	n := uint64(nvmsim.LineBytes)
	if uint64(off)+n > p.b.size {
		if uint64(off) >= p.b.size {
			return nil
		}
		n = p.b.size - uint64(off)
	}
	return h.AS.ReadAt(p.region.Base+uint64(off), dst[:n])
}

// xorGroup XORs a group's data lines (cache view) into dst.
func (h *Heap) xorGroup(p *Pool, g uint32, dst *[nvmsim.LineBytes]byte) error {
	*dst = [nvmsim.LineBytes]byte{}
	var line [nvmsim.LineBytes]byte
	start := p.groupStart(g)
	for i := uint32(0); i < parityStride; i++ {
		off := start + i*nvmsim.LineBytes
		if uint64(off) >= p.b.size {
			break
		}
		if err := h.readLinePadded(p, off, &line); err != nil {
			return err
		}
		for b := range dst {
			dst[b] ^= line[b]
		}
	}
	return nil
}

// ftSyncGroupNoFence recomputes one parity line from its group's current
// cache-view lines and stores it persistently; the caller owns the fence.
func (h *Heap) ftSyncGroupNoFence(p *Pool, g uint32) error {
	if h.ftNoParity {
		return nil
	}
	var xor [nvmsim.LineBytes]byte
	if err := h.xorGroup(p, g, &xor); err != nil {
		return err
	}
	ref := h.DirectRef(p, p.parityLineOff(g))
	if err := ref.WriteBytes(0, xor[:]); err != nil {
		return err
	}
	return h.persistNoFence(p.OID(p.parityLineOff(g)), nvmsim.LineBytes)
}

// ftSyncRangeNoFence recomputes the parity of every group covering
// [off, off+size); the caller owns the fence.
func (h *Heap) ftSyncRangeNoFence(p *Pool, off, size uint32) error {
	if size == 0 {
		return nil
	}
	first := p.groupOf(off)
	last := p.groupOf(off + size - 1)
	for g := first; g <= last; g++ {
		if err := h.ftSyncGroupNoFence(p, g); err != nil {
			return err
		}
	}
	return nil
}

// ftAppendGroups appends the dedup keys (pool<<32 | group) of every group
// covering [off, off+size) that is not yet in groups.
//
//potlint:noalloc
func ftAppendGroups(groups []uint64, p *Pool, off, size uint32) []uint64 {
	if size == 0 {
		return groups
	}
	first := p.groupOf(off)
	last := p.groupOf(off + size - 1)
outer:
	for g := first; g <= last; g++ {
		key := uint64(p.b.id)<<32 | uint64(g)
		for _, k := range groups {
			if k == key {
				continue outer
			}
		}
		groups = append(groups, key) //potlint:allow noalloc group scratch is recycled with the tx state; growth is amortized
	}
	return groups
}

// ftCommitSync brings the derived fault-tolerance state of every touched
// fault-tolerant pool up to date inside the commit fence: recompute the
// CRC32C of each slab object a record covers, then the parity of every
// group the records, checksum words and bitmap words dirtied. Called with
// the commit's CLWBs already queued and before its fence, so checksum and
// parity state ride the same durability point as the data they describe.
//
//potlint:noalloc
func (h *Heap) ftCommitSyncNoFence(st *txState) (bool, error) {
	groups := st.ftGroups[:0]
	for _, r := range st.records {
		if r.kind == recFree {
			continue
		}
		p, ok := h.open[r.oid.Pool()]
		if !ok || !p.ft() {
			continue
		}
		off, size := r.oid.Offset(), r.size
		groups = ftAppendGroups(groups, p, off, size)
		for cur := off; cur < off+size; {
			idx, slot, ok := p.alloc.lookupAny(cur) //potlint:allow noalloc lookup's search closure does not escape
			if !ok {
				break // bump allocation: uncovered
			}
			sp := p.alloc.spans[idx]
			crc, err := h.crcSlot(p, sp, slot)
			if err != nil {
				return false, err
			}
			if err := h.ftWriteCsumNoFence(p, sp, slot, crc); err != nil {
				return false, err
			}
			groups = ftAppendGroups(groups, p, sp.csumOff(slot)&^7, 8)
			next := sp.slotOff(slot) + sp.classSize()
			if next <= cur {
				break
			}
			cur = next
		}
		if r.kind == recAlloc {
			if idx, _, ok := p.alloc.lookup(off); ok { //potlint:allow noalloc lookup's search closure does not escape
				groups = ftAppendGroups(groups, p, p.alloc.spans[idx].base+spanOffBitmap, 8)
			}
		}
	}
	st.ftGroups = groups
	for _, key := range groups {
		p, ok := h.open[oid.PoolID(key>>32)]
		if !ok {
			continue
		}
		if err := h.ftSyncGroupNoFence(p, uint32(key)); err != nil {
			return false, err
		}
	}
	return len(groups) != 0, nil
}

// ftRecoverRange recomputes checksums and parity for a recovered record's
// range, with persistent writes under one fence. Recovery rewrote the
// bytes; the derived state must follow before the pool is used again.
func (h *Heap) ftRecoverRange(o oid.OID, size uint32) error {
	p, ok := h.open[o.Pool()]
	if !ok || !p.ft() {
		return nil
	}
	off := o.Offset()
	for cur := off; cur < off+size; {
		idx, slot, ok := p.alloc.lookupAny(cur)
		if !ok {
			break
		}
		sp := p.alloc.spans[idx]
		if h.slabBit(p, sp, slot) {
			crc, err := h.crcSlot(p, sp, slot)
			if err != nil {
				return err
			}
			if err := h.ftWriteCsumNoFence(p, sp, slot, crc); err != nil {
				return err
			}
			if err := h.ftSyncRangeNoFence(p, sp.csumOff(slot)&^7, 8); err != nil {
				return err
			}
		}
		next := sp.slotOff(slot) + sp.classSize()
		if next <= cur {
			break
		}
		cur = next
	}
	if err := h.ftSyncRangeNoFence(p, off, size); err != nil {
		return err
	}
	h.fence()
	atomic.AddUint64(&h.Metrics.Persists, 1)
	return nil
}

// RebuildFT recomputes every occupied slot's checksum and every parity
// group below the bump watermark, writing cache and durable views directly
// (no events, like open-time repair). Call it after non-transactional
// setup — pool population, Root creation — and before enabling
// VerifyOnRead or scrubbing: only transactional writes maintain the
// derived state incrementally.
func (h *Heap) RebuildFT(p *Pool) error {
	if !p.ft() {
		return nil
	}
	var buf [8]byte
	for _, sp := range p.alloc.spans {
		bits := h.read64(p, sp.base+spanOffBitmap)
		for slot := uint32(0); slot < uint32(sp.slots); slot++ {
			if bits&(1<<slot) == 0 {
				continue
			}
			crc, err := h.crcSlot(p, sp, slot)
			if err != nil {
				return err
			}
			wordOff := sp.csumOff(slot) &^ 7
			if err := h.AS.ReadAt(p.region.Base+uint64(wordOff), buf[:]); err != nil {
				return err
			}
			at := sp.csumOff(slot) & 7
			binary.LittleEndian.PutUint32(buf[at:], crc)
			if err := h.AS.WriteAt(p.region.Base+uint64(wordOff), buf[:]); err != nil {
				return err
			}
			copy(p.b.pageForWrite(wordOff)[wordOff&vm.PageMask:], buf[:])
		}
	}
	if h.ftNoParity {
		return nil
	}
	bump := h.read64(p, offBump)
	var xor [nvmsim.LineBytes]byte
	for g := uint32(0); uint64(p.groupStart(g)) < bump; g++ {
		if err := h.xorGroup(p, g, &xor); err != nil {
			return err
		}
		off := p.parityLineOff(g)
		if err := h.AS.WriteAt(p.region.Base+uint64(off), xor[:]); err != nil {
			return err
		}
		copy(p.b.pageForWrite(off)[off&vm.PageMask:], xor[:])
	}
	return nil
}

// reconstructLine rebuilds one data-region line from its group's parity
// and the group's other lines (cache view).
func (h *Heap) reconstructLine(p *Pool, lineOff uint32, dst *[nvmsim.LineBytes]byte) error {
	g := p.groupOf(lineOff)
	if err := h.readLinePadded(p, p.parityLineOff(g), dst); err != nil {
		return err
	}
	var line [nvmsim.LineBytes]byte
	start := p.groupStart(g)
	for i := uint32(0); i < parityStride; i++ {
		off := start + i*nvmsim.LineBytes
		if uint64(off) >= p.b.size || off == lineOff {
			continue
		}
		if err := h.readLinePadded(p, off, &line); err != nil {
			return err
		}
		for b := range dst {
			dst[b] ^= line[b]
		}
	}
	return nil
}

// repairSlot attempts to repair a slot whose stored checksum disagrees
// with its payload. Two hypotheses, both validated before any write:
//
//   - payload corruption: rebuild each payload line from parity; accept if
//     the candidate payload's CRC matches the stored checksum. Parity was
//     computed over the true bytes, so the written repair leaves it valid.
//   - checksum corruption: the checksum line is itself parity-covered;
//     rebuild it and accept if the rebuilt checksum matches the payload's
//     recomputed CRC (the whole rebuilt line is written — under the
//     one-fault-per-group model it is the true line).
//
// Repairs are ordinary persistent writes with their own fence, so a crash
// mid-repair is recoverable: the durable line is old (still caught), new
// (done), or torn (still caught, and parity still reconstructs it).
func (h *Heap) repairSlot(p *Pool, sp spanInfo, slot uint32) (bool, error) {
	stored := h.readCsum(p, sp, slot)
	cur, err := h.crcSlot(p, sp, slot)
	if err != nil {
		return false, err
	}
	if cur == stored {
		return true, nil
	}
	off := sp.slotOff(slot)
	size := sp.classSize()
	first := off &^ (nvmsim.LineBytes - 1)
	last := (off + size - 1) &^ (nvmsim.LineBytes - 1)
	// Hypothesis A, one line at a time: the fault model is a single bad
	// line, and reconstructing a *clean* line XORs the corrupt one in and
	// yields garbage. So splice each line's parity reconstruction into the
	// current bytes in turn; the splice whose payload matches the stored
	// CRC identifies the corrupt line, and only that line is rewritten.
	cand := make([]byte, last-first+nvmsim.LineBytes)
	for lo := first; lo <= last; lo += nvmsim.LineBytes {
		if err := h.AS.ReadAt(p.region.Base+uint64(lo), cand[lo-first:lo-first+nvmsim.LineBytes]); err != nil {
			return false, err
		}
	}
	var line [nvmsim.LineBytes]byte
	var orig [nvmsim.LineBytes]byte
	for lo := first; lo <= last; lo += nvmsim.LineBytes {
		at := lo - first
		if err := h.reconstructLine(p, lo, &line); err != nil {
			return false, err
		}
		copy(orig[:], cand[at:at+nvmsim.LineBytes])
		copy(cand[at:], line[:])
		pay := cand[off-first : off-first+size]
		if crc32.Checksum(pay, castagnoli) == stored {
			ref := h.DirectRef(p, lo)
			if err := ref.WriteBytes(0, line[:]); err != nil {
				return false, err
			}
			if err := h.Persist(p.OID(lo), nvmsim.LineBytes); err != nil {
				return false, err
			}
			return true, nil
		}
		copy(cand[at:], orig[:])
	}
	csumLine := sp.csumOff(slot) &^ (nvmsim.LineBytes - 1)
	if err := h.reconstructLine(p, csumLine, &line); err != nil {
		return false, err
	}
	if binary.LittleEndian.Uint32(line[sp.csumOff(slot)-csumLine:]) == cur {
		ref := h.DirectRef(p, csumLine)
		if err := ref.WriteBytes(0, line[:]); err != nil {
			return false, err
		}
		if err := h.Persist(p.OID(csumLine), nvmsim.LineBytes); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// RepairObject verifies one slab object and repairs it if its checksum
// trips; it reports whether the object is now intact. potserve's get path
// uses it for inline repair after a VerifyOnRead miss.
func (h *Heap) RepairObject(o oid.OID) (bool, error) {
	p, ok := h.open[o.Pool()]
	if !ok || !p.ft() {
		return false, fmt.Errorf("pmem: repair: %v not in an open fault-tolerant pool", o)
	}
	idx, slot, ok := p.alloc.lookup(o.Offset())
	if !ok {
		return false, fmt.Errorf("pmem: repair: %v is not a slab object", o)
	}
	return h.repairSlot(p, p.alloc.spans[idx], slot)
}

// ScrubStats summarizes one scrub pass.
type ScrubStats struct {
	// Checked counts occupied slots verified.
	Checked int
	// Repaired counts objects and checksum words rebuilt from parity.
	Repaired int
	// Unrepairable counts objects whose checksum trips but no hypothesis
	// validated (more than one fault in a group, or parity disabled).
	Unrepairable int
	// ParityRepaired counts parity lines rewritten by the group sweep.
	ParityRepaired int
}

// Add accumulates another pass's stats.
func (s *ScrubStats) Add(o ScrubStats) {
	s.Checked += o.Checked
	s.Repaired += o.Repaired
	s.Unrepairable += o.Unrepairable
	s.ParityRepaired += o.ParityRepaired
}

// ScrubPool verifies every occupied slot of a fault-tolerant pool,
// repairing what it can (phase A), then sweeps the parity groups below the
// bump watermark and rewrites any parity line whose group XOR is off while
// every object it covers verifies — the signature of a fault in the parity
// line itself (phase B). The caller must hold the pool quiescent (its
// shard's lock, or a single-threaded heap).
func (h *Heap) ScrubPool(p *Pool) (ScrubStats, error) {
	var st ScrubStats
	if !p.ft() {
		return st, nil
	}
	for _, sp := range p.alloc.spans {
		bits := h.read64(p, sp.base+spanOffBitmap)
		for slot := uint32(0); slot < uint32(sp.slots); slot++ {
			if bits&(1<<slot) == 0 {
				continue
			}
			st.Checked++
			crc, err := h.crcSlot(p, sp, slot)
			if err != nil {
				return st, err
			}
			if crc == h.readCsum(p, sp, slot) {
				continue
			}
			repaired, err := h.repairSlot(p, sp, slot)
			if err != nil {
				return st, err
			}
			if repaired {
				st.Repaired++
			} else {
				st.Unrepairable++
			}
		}
	}
	bump := h.read64(p, offBump)
	var xor, parity [nvmsim.LineBytes]byte
	for g := uint32(0); uint64(p.groupStart(g)) < bump; g++ {
		if err := h.xorGroup(p, g, &xor); err != nil {
			return st, err
		}
		if err := h.readLinePadded(p, p.parityLineOff(g), &parity); err != nil {
			return st, err
		}
		if xor == parity {
			continue
		}
		clean, err := h.groupObjectsClean(p, g)
		if err != nil {
			return st, err
		}
		if !clean {
			continue // already counted unrepairable in phase A
		}
		ref := h.DirectRef(p, p.parityLineOff(g))
		if err := ref.WriteBytes(0, xor[:]); err != nil {
			return st, err
		}
		if err := h.Persist(p.OID(p.parityLineOff(g)), nvmsim.LineBytes); err != nil {
			return st, err
		}
		st.ParityRepaired++
	}
	return st, nil
}

// groupObjectsClean reports whether every occupied slot whose payload or
// checksum word overlaps the group verifies against its stored checksum.
func (h *Heap) groupObjectsClean(p *Pool, g uint32) (bool, error) {
	lo := p.groupStart(g)
	hi := lo + parityStride*nvmsim.LineBytes
	for _, sp := range p.alloc.spans {
		if uint64(sp.base) >= uint64(hi) || sp.end() <= uint64(lo) {
			continue
		}
		bits := h.read64(p, sp.base+spanOffBitmap)
		for slot := uint32(0); slot < uint32(sp.slots); slot++ {
			if bits&(1<<slot) == 0 {
				continue
			}
			payLo := sp.slotOff(slot)
			payHi := payLo + sp.classSize()
			csumLo := sp.csumOff(slot) &^ 7
			overlaps := (payLo < hi && payHi > lo) || (csumLo < hi && csumLo+8 > lo)
			if !overlaps {
				continue
			}
			crc, err := h.crcSlot(p, sp, slot)
			if err != nil {
				return false, err
			}
			if crc != h.readCsum(p, sp, slot) {
				return false, nil
			}
		}
	}
	return true, nil
}

// CorruptMode selects the media-fault injector's target class.
type CorruptMode int

const (
	// CorruptDetect flips bits in live object payloads: VerifyOnRead (or
	// the scrub's checksum pass) catches them.
	CorruptDetect CorruptMode = iota
	// CorruptSilent flips bits in checksum words and parity lines: reads
	// sail past them; only the scrub's derived-state sweeps notice.
	CorruptSilent
)

func (m CorruptMode) String() string {
	if m == CorruptSilent {
		return "silent"
	}
	return "detect"
}

// ParseCorruptMode parses "detect" or "silent".
func ParseCorruptMode(s string) (CorruptMode, error) {
	switch s {
	case "detect":
		return CorruptDetect, nil
	case "silent":
		return CorruptSilent, nil
	default:
		return 0, fmt.Errorf("pmem: unknown corrupt mode %q (want detect or silent)", s)
	}
}

// Corruption records one injected media fault.
type Corruption struct {
	// OID is the slab object the fault targets (for parity faults, an
	// object in the affected group).
	OID oid.OID
	// Flip is the exact bit flipped, replayable through nvmsim.
	Flip nvmsim.Flip
	// Kind is "payload", "csum" or "parity".
	Kind string
}

// CorruptObjects injects k single-bit media faults into live objects of
// the open fault-tolerant pools, each fault a numbered nvmsim event.
// Targets are deduplicated by slot and by parity group — the repair
// guarantee is one fault per group. Deterministic for a given seed and
// heap state. The caller should be quiescent (locks held, no live tx).
func (h *Heap) CorruptObjects(k int, mode CorruptMode, seed uint64) ([]Corruption, error) {
	type cand struct {
		p    *Pool
		sp   spanInfo
		slot uint32
	}
	ids := make([]oid.PoolID, 0, len(h.open))
	for id := range h.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var cands []cand
	for _, id := range ids {
		p := h.open[id]
		if !p.ft() {
			continue
		}
		for _, sp := range p.alloc.spans {
			bits := h.read64(p, sp.base+spanOffBitmap)
			for slot := uint32(0); slot < uint32(sp.slots); slot++ {
				if bits&(1<<slot) != 0 {
					cands = append(cands, cand{p: p, sp: sp, slot: slot})
				}
			}
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("pmem: no live objects in fault-tolerant pools to corrupt")
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	usedGroup := make(map[uint64]bool)
	usedSlot := make(map[uint64]bool)
	var out []Corruption
	for attempts := 0; len(out) < k; attempts++ {
		if attempts > 1000*k+1000 {
			return out, fmt.Errorf("pmem: could not place %d faults in distinct parity groups (placed %d)", k, len(out))
		}
		c := cands[rng.Intn(len(cands))]
		o := c.p.OID(c.sp.slotOff(c.slot))
		slotKey := uint64(c.p.b.id)<<32 | uint64(o.Offset())
		if usedSlot[slotKey] {
			continue
		}
		kind := "payload"
		var off, bit uint32
		switch {
		case mode == CorruptDetect:
			bit = uint32(rng.Intn(int(c.sp.classSize()) * 8))
			off = c.sp.slotOff(c.slot) + bit/8
			bit %= 8
		case rng.Intn(2) == 0:
			kind = "csum"
			bit = uint32(rng.Intn(32))
			off = c.sp.csumOff(c.slot) + bit/8
			bit %= 8
		default:
			kind = "parity"
			g := c.p.groupOf(c.sp.slotOff(c.slot))
			bit = uint32(rng.Intn(nvmsim.LineBytes * 8))
			off = c.p.parityLineOff(g) + bit/8
			bit %= 8
		}
		lineOff := off &^ (nvmsim.LineBytes - 1)
		var g uint32
		if kind == "parity" {
			g = (lineOff - c.p.parityStart()) / nvmsim.LineBytes
		} else {
			g = c.p.groupOf(lineOff)
		}
		groupKey := uint64(c.p.b.id)<<32 | uint64(g)
		if usedGroup[groupKey] {
			continue
		}
		usedGroup[groupKey] = true
		usedSlot[slotKey] = true
		flipBit := uint16((off-lineOff)*8 + bit)
		h.NV.FlipBit(uint32(c.p.b.id), lineOff, flipBit, h)
		out = append(out, Corruption{
			OID:  o,
			Flip: nvmsim.Flip{Line: nvmsim.Line{Pool: uint32(c.p.b.id), Off: lineOff}, Bit: flipBit},
			Kind: kind,
		})
	}
	return out, nil
}
