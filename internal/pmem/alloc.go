package pmem

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/vm"
)

// Emitted-cost constants for the allocator and transaction machinery,
// approximating the instruction footprint of the corresponding libpmemobj
// paths (reserve/publish bookkeeping, ulog management) beyond the explicit
// persistent loads/stores this implementation performs.
const (
	allocWork   = 120
	freeWork    = 60
	txBeginWork = 80
	txLogWork   = 300
	txEndWork   = 100
)

// The allocator is a size-class slab allocator (Pangolin-style). Class
// allocations are served from spans: contiguous runs of equally sized slots
// carved off the bump region, headed by a persistent 24-byte span header
// whose occupancy bitmap is the durable ground truth of which slots are
// live. Spans of one class are chained through their headers from the
// per-class head word in the pool header (offFreeHead + 8*class).
//
// Volatile state mirrors the durable layout for speed: a sorted span index
// for O(log n) payload→span resolution and a per-class LIFO stack of free
// slots, rebuilt from the bitmaps on pool open. Allocation pops a slot and
// sets its bit (a volatile store — transactional allocations become durable
// at commit when the bitmap word is persisted under the commit fence);
// frees clear the bit and push the slot back. Because recovery decides a
// slot's fate from its bitmap bit rather than from free-list pointer
// threading, the PR 3 reuse hazard (a popped block whose first payload word
// was the list's next pointer) is structurally gone: no allocator metadata
// ever lives inside a payload.
//
// Large requests (beyond the biggest class) are bump-allocated exactly,
// with no header; they are dropped on free, as before.

// spanInfo is one carved span in the volatile index.
type spanInfo struct {
	base  uint32 // pool offset of the span header
	hdr   uint16 // header size: 24, plus the checksum array in FT pools
	class uint16
	slots uint16
}

func (s spanInfo) classSize() uint32 { return sizeClasses[s.class] }

// end is the pool offset one past the span's last slot.
func (s spanInfo) end() uint64 {
	return uint64(s.base) + uint64(s.hdr) + uint64(s.slots)*uint64(s.classSize())
}

// slotOff is the pool offset of slot i's payload.
func (s spanInfo) slotOff(slot uint32) uint32 {
	return s.base + uint32(s.hdr) + slot*s.classSize()
}

// csumOff is the pool offset of slot i's stored CRC32C (FT spans only).
func (s spanInfo) csumOff(slot uint32) uint32 {
	return s.base + spanOffCsum + 4*slot
}

// allocState is a pool's volatile slab index: the span index sorted by base
// offset, and one LIFO free-slot stack per class. Stack entries pack the
// span index and slot number (spanIdx<<8 | slot); spans only ever append at
// higher offsets, so indices into the sorted slice stay stable.
type allocState struct {
	spans []spanInfo
	free  [len(sizeClasses)][]uint32
}

// lookup resolves a payload offset to its span and slot. Misses mean the
// offset is a large (bump) allocation or not a slab payload at all.
func (st *allocState) lookup(off uint32) (spanIdx int, slot uint32, ok bool) {
	i := sort.Search(len(st.spans), func(i int) bool { return st.spans[i].base > off })
	if i == 0 {
		return 0, 0, false
	}
	sp := st.spans[i-1]
	if uint64(off) >= sp.end() || off < sp.base+uint32(sp.hdr) {
		return 0, 0, false
	}
	rel := off - sp.base - uint32(sp.hdr)
	if rel%sp.classSize() != 0 {
		return 0, 0, false
	}
	return i - 1, rel / sp.classSize(), true
}

// lookupAny is lookup without the slot-alignment requirement: any offset
// inside a slot's payload resolves to that slot. Checksum maintenance uses
// it, because undo records may snapshot interior ranges of an object.
func (st *allocState) lookupAny(off uint32) (spanIdx int, slot uint32, ok bool) {
	i := sort.Search(len(st.spans), func(i int) bool { return st.spans[i].base > off })
	if i == 0 {
		return 0, 0, false
	}
	sp := st.spans[i-1]
	if uint64(off) >= sp.end() || off < sp.base+uint32(sp.hdr) {
		return 0, 0, false
	}
	return i - 1, (off - sp.base - uint32(sp.hdr)) / sp.classSize(), true
}

// Alloc is pmalloc (paper Table 1): allocate size bytes in pool p and return
// the ObjectID of the first byte. All metadata accesses are persistent
// accesses, so in BASE mode they pay software translation and in OPT mode
// they become nvld/nvst — exactly the library acceleration the paper
// describes in §3.3. Like Free, the non-transactional Alloc makes no
// crash-consistency promise (the slot bit it sets stays volatile until some
// later fence drains it); carving a fresh span is always made durable
// before the span is published.
func (h *Heap) Alloc(p *Pool, size uint32) (oid.OID, error) {
	return h.alloc(p, size)
}

func (h *Heap) alloc(p *Pool, size uint32) (oid.OID, error) {
	o, sp, slot, slab, err := h.allocReserve(p, size)
	if err != nil {
		return oid.Null, err
	}
	if slab {
		if err := h.storeSlabBit(p, sp, slot, true); err != nil {
			return oid.Null, err
		}
	}
	return o, nil
}

// allocReserve picks the block — popping a free slot or carving a fresh
// span — WITHOUT setting the slot's occupancy bit. The split lets a
// transactional caller persist its undo record between the choice and the
// claim (write-ahead: the recAlloc record must be durable before the bit
// can possibly reach the media, or a torn crash in between leaks the
// slot). slab is false for large bump allocations, which have no bit.
func (h *Heap) allocReserve(p *Pool, size uint32) (o oid.OID, sp spanInfo, slot uint32, slab bool, err error) {
	if size == 0 {
		return oid.Null, spanInfo{}, 0, false, fmt.Errorf("pmem: zero-byte allocation in pool %q", p.b.name)
	}
	atomic.AddUint64(&h.Metrics.Allocs, 1)
	atomic.AddUint64(&h.Metrics.AllocBytes, uint64(size))
	class, classSize := classOf(size)
	h.Emit.Jump()             // call into the allocator
	h.Emit.Compute(allocWork) // size class, handle checks, reserve/publish bookkeeping

	if class < 0 {
		// Large: exact bump allocation, no header.
		hdr := h.DirectRef(p, 0)
		bump, err := hdr.Load64(offBump)
		if err != nil {
			return oid.Null, spanInfo{}, 0, false, err
		}
		newBump := bump.V + uint64(classSize)
		if newBump > p.b.size {
			return oid.Null, spanInfo{}, 0, false, fmt.Errorf("pmem: pool %q out of memory (%d requested, %d free)",
				p.b.name, size, p.b.size-bump.V)
		}
		h.Emit.Compute(6, bump.Reg)
		if err := hdr.Store64(offBump, newBump, bump.Reg); err != nil {
			return oid.Null, spanInfo{}, 0, false, err
		}
		return p.OID(uint32(bump.V)), spanInfo{}, 0, false, nil
	}

	st := p.alloc
	if len(st.free[class]) == 0 {
		if err := h.carveSpan(p, class, classSize); err != nil {
			return oid.Null, spanInfo{}, 0, false, err
		}
	}
	stack := st.free[class]
	ent := stack[len(stack)-1]
	st.free[class] = stack[:len(stack)-1]
	sp = st.spans[ent>>8]
	slot = ent & 0xff
	return p.OID(sp.slotOff(slot)), sp, slot, true, nil
}

// storeSlabBit sets or clears one slot's occupancy bit in its span's bitmap
// word (a persistent read-modify-write; durability is the caller's concern).
func (h *Heap) storeSlabBit(p *Pool, sp spanInfo, slot uint32, set bool) error {
	bm := h.DirectRef(p, sp.base+spanOffBitmap)
	w, err := bm.Load64(0)
	if err != nil {
		return err
	}
	v := w.V &^ (1 << slot)
	if set {
		v = w.V | 1<<slot
	}
	r := h.Emit.Compute(2, w.Reg) // bit mask + or/andn
	return bm.Store64(0, v, r)
}

// slabBit reads one slot's occupancy bit functionally (no emission).
func (h *Heap) slabBit(p *Pool, sp spanInfo, slot uint32) bool {
	return h.read64(p, sp.base+spanOffBitmap)&(1<<slot) != 0
}

// carveSpan cuts a fresh all-free span for the class off the bump region
// and pushes every slot onto the class's free stack (slot 0 on top). The
// span is shrunk to fit the remaining space when the preferred slot count
// does not fit (down to a single slot). Publication is crash-ordered: the
// span header (empty bitmap and the chain link to the previous head) is
// persisted under its own fence before the bump pointer and chain head
// stores, so any surviving head value references a fully durable span. A
// crash between the two fences at worst leaks the carved bytes, exactly as
// the previous bump allocator leaked a block whose bump advance never
// became durable; a crash after publication merely leaves an empty span
// that reopening puts back on the free stacks.
func (h *Heap) carveSpan(p *Pool, class int, classSize uint32) error {
	hdr := h.DirectRef(p, 0)
	bump, err := hdr.Load64(offBump)
	if err != nil {
		return err
	}
	ft := p.ft()
	// Shrink-to-fit: the header grows with the slot count in FT pools
	// (4 checksum bytes per slot), so fit is re-checked per candidate.
	slots := classSlots[class]
	for slots > 0 {
		need := uint64(spanHdrBytes(slots, ft)) + uint64(slots)*uint64(classSize)
		if bump.V+need <= p.b.size {
			break
		}
		slots--
	}
	if slots == 0 {
		return fmt.Errorf("pmem: pool %q out of memory (%d requested, %d free)",
			p.b.name, classSize, p.b.size-bump.V)
	}
	hdrBytes := spanHdrBytes(slots, ft)
	base := uint32(bump.V)
	newBump := bump.V + uint64(hdrBytes) + uint64(slots)*uint64(classSize)
	h.Emit.Compute(6, bump.Reg)

	// Write and persist the span header before anything references it.
	span := h.DirectRef(p, base)
	if err := span.Store64(spanOffWord0, spanWord0(class, slots, ft), isa.RZ); err != nil {
		return err
	}
	head, err := hdr.Load64(p.freeHeadOff(class))
	if err != nil {
		return err
	}
	if err := span.Store64(spanOffNext, head.V, head.Reg); err != nil {
		return err
	}
	// Every slot starts free; claiming one is the caller's separate,
	// write-ahead-ordered step.
	if err := span.Store64(spanOffBitmap, 0, isa.RZ); err != nil {
		return err
	}
	// FT spans: the checksum array starts explicitly zeroed — a fresh
	// slot's stored CRC is defined garbage until its first commit fills it.
	for off := uint32(spanOffCsum); off < hdrBytes; off += 8 {
		if err := span.Store64(off, 0, isa.RZ); err != nil {
			return err
		}
	}
	if !ft {
		if err := h.Persist(p.OID(base), hdrBytes); err != nil {
			return err
		}
	} else {
		// The header lines live in the parity-covered data region: fold
		// their parity groups into the same fence.
		if err := h.persistNoFence(p.OID(base), hdrBytes); err != nil {
			return err
		}
		if err := h.ftSyncRangeNoFence(p, base, hdrBytes); err != nil {
			return err
		}
		h.fence()
		atomic.AddUint64(&h.Metrics.Persists, 1)
	}

	// Publish: advance the bump past the span and chain the span in, one
	// fence for both header words.
	if err := hdr.Store64(offBump, newBump, bump.Reg); err != nil {
		return err
	}
	if err := hdr.Store64(p.freeHeadOff(class), uint64(base), isa.RZ); err != nil { //potlint:allow allocorder FT branch persists the span header under its own fence just above; only the naming differs
		return err
	}
	if err := h.persistNoFence(p.OID(offBump), 8); err != nil {
		return err
	}
	if err := h.persistNoFence(p.OID(p.freeHeadOff(class)), 8); err != nil {
		return err
	}
	h.fence()
	atomic.AddUint64(&h.Metrics.SpansCarved, 1)

	st := p.alloc
	sp := spanInfo{base: base, hdr: uint16(hdrBytes), class: uint16(class), slots: uint16(slots)}
	idx := uint32(len(st.spans))
	st.spans = append(st.spans, sp)
	for slot := int(slots) - 1; slot >= 0; slot-- {
		st.free[class] = append(st.free[class], idx<<8|uint32(slot))
	}
	return nil
}

// Free is pfree: clear the slot's occupancy bit and push it on its class's
// free stack. Large (over-class) blocks are dropped, reclaimed only on pool
// recreation, as in many real log-structured pools. The bit clear is a
// volatile store — non-transactional frees make no crash-consistency
// promise.
func (h *Heap) Free(o oid.OID) error {
	p, sp, slot, large, err := h.resolveSlot(o, "free")
	if err != nil {
		return err
	}
	atomic.AddUint64(&h.Metrics.Frees, 1)
	h.Emit.Jump()
	h.Emit.Compute(freeWork)
	if large {
		return nil
	}
	if !h.slabBit(p, sp, slot) {
		return fmt.Errorf("pmem: double free of %v in pool %q", o, p.b.name)
	}
	if err := h.storeSlabBit(p, sp, slot, false); err != nil {
		return err
	}
	h.pushFree(p, o.Offset())
	return nil
}

// resolveSlot maps an ObjectID to its pool and span slot. large reports a
// valid data-region offset with no owning span (a bump allocation).
func (h *Heap) resolveSlot(o oid.OID, op string) (p *Pool, sp spanInfo, slot uint32, large bool, err error) {
	p, ok := h.open[o.Pool()]
	if !ok {
		return nil, spanInfo{}, 0, false, fmt.Errorf("pmem: %s in unopened pool %d", op, o.Pool())
	}
	if err := p.checkOffset(o.Offset(), 8); err != nil {
		return nil, spanInfo{}, 0, false, err
	}
	idx, slot, ok := p.alloc.lookup(o.Offset())
	if !ok {
		return p, spanInfo{}, 0, true, nil
	}
	return p, p.alloc.spans[idx], slot, false, nil
}

// pushFree pushes a slab payload offset onto its class's free stack.
func (h *Heap) pushFree(p *Pool, off uint32) {
	st := p.alloc
	idx, slot, ok := st.lookup(off)
	if !ok {
		return
	}
	class := st.spans[idx].class
	st.free[class] = append(st.free[class], uint32(idx)<<8|slot)
}

// AllocatedBytes reports the bump watermark (diagnostics).
func (h *Heap) AllocatedBytes(p *Pool) uint64 {
	return h.read64(p, offBump) - p.dataStart()
}

// SlabStats reports the pool's span count and slot occupancy (volatile
// index reads; diagnostics and the obs slab-occupancy gauges).
func (h *Heap) SlabStats(p *Pool) (spans, slotsTotal, slotsLive int) {
	st := p.alloc
	spans = len(st.spans)
	for _, sp := range st.spans {
		slotsTotal += int(sp.slots)
	}
	slotsLive = slotsTotal
	for _, stack := range st.free {
		slotsLive -= len(stack)
	}
	return spans, slotsTotal, slotsLive
}

// freeDurable is Free with crash-safe ordering: the slot's bitmap bit is
// cleared and persisted under its own fence before the slot is reusable.
// Transaction commit/abort use it; the plain Free stays fence-free because
// non-transactional frees make no crash-consistency promise.
func (h *Heap) freeDurable(o oid.OID) error {
	p, sp, slot, large, err := h.resolveSlot(o, "free")
	if err != nil {
		return err
	}
	h.Emit.Jump()
	h.Emit.Compute(freeWork)
	if large {
		return nil // large block: dropped, as in Free
	}
	if !h.slabBit(p, sp, slot) {
		return fmt.Errorf("pmem: double free of %v in pool %q", o, p.b.name)
	}
	if err := h.storeSlabBit(p, sp, slot, false); err != nil {
		return err
	}
	if err := h.persistBitmapFT(p, sp); err != nil {
		return err
	}
	h.pushFree(p, o.Offset())
	return nil
}

// persistBitmapFT persists a span's bitmap word under its own fence,
// folding the word's parity group into the fence for FT pools.
func (h *Heap) persistBitmapFT(p *Pool, sp spanInfo) error {
	if !p.ft() {
		return h.Persist(p.OID(sp.base+spanOffBitmap), 8)
	}
	if err := h.persistNoFence(p.OID(sp.base+spanOffBitmap), 8); err != nil {
		return err
	}
	if err := h.ftSyncRangeNoFence(p, sp.base+spanOffBitmap, 8); err != nil {
		return err
	}
	h.fence()
	atomic.AddUint64(&h.Metrics.Persists, 1)
	return nil
}

// recoverFree applies a logged free during recovery. Recovery itself can be
// interrupted by a crash and re-run over the same log, so the application
// must be idempotent: the slot's bitmap bit decides. A still-set bit is
// cleared durably and the slot pushed; an already-clear bit (the crash
// dropped the volatile set, or a previous interrupted recovery already
// applied the free) only moves the slot to the top of its free stack, so
// the freed ObjectID is the next one the class hands out — recovery
// converges to the same durable bytes and the same allocation order no
// matter how often it re-runs.
func (h *Heap) recoverFree(o oid.OID) error {
	p, sp, slot, large, err := h.resolveSlot(o, "recover free")
	if err != nil {
		return err
	}
	if large {
		return nil
	}
	if !h.slabBit(p, sp, slot) {
		h.liftFree(p, o.Offset())
		return nil
	}
	if err := h.storeSlabBit(p, sp, slot, false); err != nil {
		return err
	}
	if err := h.persistBitmapFT(p, sp); err != nil {
		return err
	}
	h.pushFree(p, o.Offset())
	return nil
}

// liftFree moves a payload offset's stack entry to the top of its class
// stack, pushing it if absent (recovery-only; O(stack) scan).
func (h *Heap) liftFree(p *Pool, off uint32) {
	st := p.alloc
	idx, slot, ok := st.lookup(off)
	if !ok {
		return
	}
	class := st.spans[idx].class
	ent := uint32(idx)<<8 | slot
	stack := st.free[class]
	for i, e := range stack {
		if e == ent {
			copy(stack[i:], stack[i+1:])
			stack[len(stack)-1] = ent
			return
		}
	}
	st.free[class] = append(stack, ent)
}

// rebuildAllocState reconstructs the volatile slab index from the durable
// span chains (pool open). Chain heads are only ever published after their
// span header's own fence, so every reachable span is fully durable; a
// garbage head would mean a corrupt pool and fails the open. If a published
// span extends past the durable bump pointer (the head store survived a
// torn crash that lost the bump advance), the bump is repaired upward —
// functionally, cache and durable views both, like the rest of open-time
// recovery plumbing.
func (h *Heap) rebuildAllocState(p *Pool) error {
	const maxWalk = 1 << 20
	st := &allocState{}
	bump := h.read64(p, offBump)
	maxEnd := bump
	for class := range sizeClasses {
		cur := h.read64(p, p.freeHeadOff(class))
		for steps := 0; cur != 0; steps++ {
			if steps >= maxWalk {
				return fmt.Errorf("pmem: open %q: span chain class %d longer than %d (cycle?)",
					p.b.name, class, maxWalk)
			}
			if cur < p.dataStart() || cur%8 != 0 || cur+spanHeaderBytes > p.b.size {
				return fmt.Errorf("pmem: open %q: class %d chain holds invalid span %#x",
					p.b.name, class, cur)
			}
			w0 := h.read64(p, uint32(cur))
			c, slots, ft, ok := parseSpanWord0(w0)
			if !ok || c != class {
				return fmt.Errorf("pmem: open %q: span %#x has bad header %#x (chain class %d)",
					p.b.name, cur, w0, class)
			}
			if ft != p.ft() {
				return fmt.Errorf("pmem: open %q: span %#x fault-tolerance flag %v does not match pool",
					p.b.name, cur, ft)
			}
			sp := spanInfo{base: uint32(cur), hdr: uint16(spanHdrBytes(slots, ft)), class: uint16(class), slots: uint16(slots)}
			if sp.end() > p.b.size {
				return fmt.Errorf("pmem: open %q: span %#x (%d slots) overruns the pool",
					p.b.name, cur, slots)
			}
			if sp.end() > maxEnd {
				maxEnd = sp.end()
			}
			st.spans = append(st.spans, sp)
			cur = h.read64(p, uint32(cur)+spanOffNext)
		}
	}
	sort.Slice(st.spans, func(i, j int) bool { return st.spans[i].base < st.spans[j].base })
	for i := 1; i < len(st.spans); i++ {
		if uint64(st.spans[i].base) < st.spans[i-1].end() {
			return fmt.Errorf("pmem: open %q: spans %#x and %#x overlap",
				p.b.name, st.spans[i-1].base, st.spans[i].base)
		}
	}
	if maxEnd > bump {
		h.repair64(p, offBump, maxEnd)
	}
	// Free stacks: push descending by span base and slot so the lowest
	// free slot of the oldest span ends on top — matching the allocator's
	// deterministic oldest-first reuse after reopen.
	for i := len(st.spans) - 1; i >= 0; i-- {
		sp := st.spans[i]
		bits := h.read64(p, sp.base+spanOffBitmap)
		mask := ^uint64(0)
		if sp.slots < 64 {
			mask = uint64(1)<<sp.slots - 1
		}
		if bits&^mask != 0 {
			return fmt.Errorf("pmem: open %q: span %#x bitmap %#x has bits beyond %d slots",
				p.b.name, sp.base, bits, sp.slots)
		}
		for slot := int(sp.slots) - 1; slot >= 0; slot-- {
			if bits&(1<<uint(slot)) == 0 {
				st.free[sp.class] = append(st.free[sp.class], uint32(i)<<8|uint32(slot))
			}
		}
	}
	p.alloc = st
	return nil
}

// repair64 writes a header word into both the cache view and the durable
// backing directly — open-time self-repair, outside the emitted program.
func (h *Heap) repair64(p *Pool, off uint32, v uint64) {
	if err := h.AS.Write64(p.region.Base+uint64(off), v); err != nil {
		panic(fmt.Sprintf("pmem: pool %q header unmapped: %v", p.b.name, err))
	}
	binary.LittleEndian.PutUint64(p.b.pageForWrite(off)[off&vm.PageMask:], v)
}
