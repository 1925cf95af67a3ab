package pmem

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"potgo/internal/isa"
	"potgo/internal/oid"
)

// Transaction support: write-ahead undo logging (paper §2.1.4).
//
// The undo log lives inside the transaction's pool, immediately after the
// header page. Its layout:
//
//	log[0]      count of valid records (0 = log empty / committed)
//	log[8]      state: active (undo on recovery) or committed (redo frees)
//	log[16]...  records, each: {kind, oid, size, data padded to 8 bytes}
//
// A record is persisted (CLWB + SFENCE) before the count that publishes it,
// so a crash can never observe a published-but-unwritten record. Commit
// first persists every range the transaction modified (plus the allocator
// metadata of every pool that served a transactional allocation), then —
// when the transaction holds deferred frees — durably sets the state word
// to committed before applying them, so a crash mid-commit redoes the frees
// instead of undoing a transaction whose data is already durable.
//
// Truncation must never expose (count>0, state=active) after the commit
// point, so it clears the count first and the state word second, each with
// its own fence; the intermediate (0, committed) state reads as a clean
// log and is swept by the next Recover or TxBegin.
//
// Transactions come in two shapes:
//
//   - Handle-based (Begin/Tx.Commit): each transaction is a *Tx bound to
//     the pool holding its undo log. Different pools may run transactions
//     concurrently — the heap only tracks which pools have a live log.
//     Callers in concurrent mode must hold the write locks of every shard
//     the transaction touches (see Sharded).
//   - Ambient (TxBegin/TxEnd, paper Table 1): the legacy single-threaded
//     API, a thin wrapper holding one implicit *Tx on the heap. All
//     existing workloads use it; its emission is bit-identical to the
//     pre-handle implementation.
const (
	recData  = 0 // snapshot of object bytes taken by tx_add_range
	recAlloc = 1 // allocation to undo on abort
	recFree  = 2 // free-intent to apply on commit
)

const recHeaderBytes = 24

// allocMetaBytes is the span of pool-header bytes holding the allocator's
// durable state: bump pointer, root slot and every free-list head. Commit
// persists it for each pool that served a transactional allocation, so the
// durable bump can never lag behind a durably published object.
const allocMetaBytes = offFreeHead + 8*uint32(len(sizeClasses))

type txRecord struct {
	kind uint64
	oid  oid.OID
	size uint32
	old  []byte // recData: the snapshotted bytes
}

type txState struct {
	pool     *Pool
	writeOff uint32 // next free byte in the log region (pool offset)
	records  []txRecord
	// snap is the snapshot arena: AddRange carves its undo images here
	// instead of allocating per call, and txRecord.old aliases the carve.
	// Reset (not freed) when the Tx is recycled, so a steady-state
	// transaction loop reaches zero heap allocations.
	snap []byte
	// allocPools is resolveAllocPools' reusable result slice.
	allocPools []*Pool
	// ftGroups is ftCommitSyncNoFence's reusable parity-group dedup scratch
	// (keys pool<<32|group), so fault-tolerant commits allocate nothing.
	ftGroups []uint64
}

// scratch carves n zeroed bytes from the snapshot arena. When the arena is
// full a larger one is started; carves handed out earlier keep aliasing the
// old backing array (the records that hold them pin it).
func (st *txState) scratch(n int) []byte {
	off := len(st.snap)
	if off+n > cap(st.snap) {
		st.snap = make([]byte, 0, 2*cap(st.snap)+n+256)
		off = 0
	}
	st.snap = st.snap[:off+n]
	b := st.snap[off : off+n]
	clear(b)
	return b
}

// Tx is one open transaction: an undo log in its pool plus the in-memory
// record mirror. A Tx is not itself goroutine-safe; concurrency comes from
// independent transactions on disjoint pools.
type Tx struct {
	h  *Heap
	st *txState
}

// InTx reports whether an ambient (legacy API) transaction is active.
func (h *Heap) InTx() bool { return h.ambient != nil }

// Begin opens a handle-based transaction whose undo log lives in pool p.
// At most one transaction may be live per pool (the log is singular);
// nested transactions are not supported, matching the reduced API of paper
// Table 1.
func (h *Heap) Begin(p *Pool) (*Tx, error) {
	if _, ok := h.open[p.b.id]; !ok {
		return nil, fmt.Errorf("pmem: tx_begin on closed pool %q", p.b.name)
	}
	h.txMu.Lock()
	if h.txs[p.b.id] != nil {
		h.txMu.Unlock()
		return nil, fmt.Errorf("pmem: transaction already active on pool %q", p.b.name)
	}
	var t *Tx
	if n := len(h.txFree); n > 0 {
		t = h.txFree[n-1]
		h.txFree = h.txFree[:n-1]
		st := t.st
		st.pool = p
		st.writeOff = logStart + logOffRecords
		st.records = st.records[:0]
		st.snap = st.snap[:0]
		st.allocPools = st.allocPools[:0]
		st.ftGroups = st.ftGroups[:0]
	} else {
		t = &Tx{h: h, st: &txState{pool: p, writeOff: logStart + logOffRecords}}
	}
	h.txs[p.b.id] = t
	h.txMu.Unlock()
	// VerifyOnRead stands down while any transaction is live: checksums
	// are only brought up to date at commit.
	atomic.AddInt32(&h.txActive, 1)
	// A crash between the two truncation fences can leave a stale
	// committed marker behind an empty log; clear it before this
	// transaction publishes any record under it.
	if h.read64(p, logStart+logOffState) != txStateActive {
		if err := h.clearLogState(p); err != nil {
			h.releaseTx(t)
			return nil, err
		}
	}
	atomic.AddUint64(&h.Metrics.TxBegins, 1)
	h.Emit.Jump()
	h.Emit.Compute(txBeginWork)
	return t, nil
}

// releaseTx retires a transaction's pool-busy registration.
func (h *Heap) releaseTx(t *Tx) {
	h.txMu.Lock()
	if h.txs[t.st.pool.b.id] == t {
		delete(h.txs, t.st.pool.b.id)
		atomic.AddInt32(&h.txActive, -1)
	}
	h.txMu.Unlock()
}

// recycleTx hands a cleanly finished transaction back to Begin's free list.
// Only call after releaseTx, and never for a handle the caller may still
// use: the next Begin on any pool can return the same *Tx.
func (h *Heap) recycleTx(t *Tx) {
	h.txMu.Lock()
	if len(h.txFree) < 64 {
		h.txFree = append(h.txFree, t)
	}
	h.txMu.Unlock()
}

// poolBusy reports whether a transaction's undo log is live in pool p.
func (h *Heap) poolBusy(p *Pool) bool {
	h.txMu.Lock()
	_, busy := h.txs[p.b.id]
	h.txMu.Unlock()
	return busy
}

// dropAllTxs abandons every live transaction (crash: process state is gone).
func (h *Heap) dropAllTxs() {
	h.txMu.Lock()
	h.txs = make(map[oid.PoolID]*Tx)
	atomic.StoreInt32(&h.txActive, 0)
	h.txMu.Unlock()
	h.ambient = nil
}

// TxBegin starts an ambient transaction whose undo log lives in pool p
// (paper: tx_begin).
func (h *Heap) TxBegin(p *Pool) error {
	if h.ambient != nil {
		return fmt.Errorf("pmem: transaction already active on pool %q", h.ambient.st.pool.b.name)
	}
	t, err := h.Begin(p)
	if err != nil {
		return err
	}
	h.ambient = t
	return nil
}

// logAppend writes one record into the log, persists it, then publishes it
// by bumping and persisting the count.
//
//potlint:noalloc
func (t *Tx) logAppend(kind uint64, target oid.OID, size uint32, data []byte) error {
	h, st := t.h, t.st
	padded := (uint32(len(data)) + 7) &^ 7
	if uint64(st.writeOff)+recHeaderBytes+uint64(padded) > logStart+st.pool.b.logBytes {
		return fmt.Errorf("pmem: undo log of pool %q full", st.pool.b.name)
	}
	h.Emit.Jump() // call into the log layer
	h.Emit.Compute(txLogWork)
	recOID := st.pool.OID(st.writeOff)
	rec, err := h.Deref(recOID, isa.RZ)
	if err != nil {
		return err
	}
	if err := rec.Store64(0, kind, isa.RZ); err != nil {
		return err
	}
	if err := rec.Store64(8, uint64(target), isa.RZ); err != nil {
		return err
	}
	if err := rec.Store64(16, uint64(size), isa.RZ); err != nil {
		return err
	}
	if len(data) > 0 {
		// AddRange hands in an arena carve whose capacity already covers the
		// zeroed pad bytes; only a foreign caller pays for a padded copy.
		buf := data
		if uint32(len(buf)) != padded {
			if uint32(cap(buf)) >= padded {
				buf = buf[:padded]
			} else {
				buf = make([]byte, padded) //potlint:allow noalloc only a foreign caller pays the padded copy; AddRange hands in an arena carve
				copy(buf, data)
			}
		}
		if err := rec.WriteBytes(recHeaderBytes, buf); err != nil {
			return err
		}
	}
	// Write-ahead: record persists before it is published.
	if err := h.Persist(recOID, recHeaderBytes+padded); err != nil {
		return err
	}
	st.writeOff += recHeaderBytes + padded

	countOID := st.pool.OID(logStart + logOffCount)
	cnt, err := h.Deref(countOID, isa.RZ)
	if err != nil {
		return err
	}
	n := uint64(len(st.records) + 1)
	if err := cnt.Store64(0, n, isa.RZ); err != nil {
		return err
	}
	if err := h.Persist(countOID, 8); err != nil {
		return err
	}
	rcd := txRecord{kind: kind, oid: target, size: size}
	if len(data) > 0 {
		// The in-memory mirror aliases the arena carve (or the caller's
		// buffer); both live as long as the record does, so no copy.
		rcd.old = data
	}
	st.records = append(st.records, rcd) //potlint:allow noalloc record mirror is recycled across transactions; growth is amortized
	atomic.AddUint64(&h.Metrics.UndoRecords, 1)
	atomic.AddUint64(&h.Metrics.UndoBytes, recHeaderBytes+uint64(padded))
	return nil
}

// AddRange snapshots [o, o+size) into the undo log. Call it before
// modifying the range; commit makes the new contents durable, abort or
// recovery restores the snapshot.
//
//potlint:noalloc
func (t *Tx) AddRange(o oid.OID, size uint32) error {
	src, err := t.h.Deref(o, isa.RZ)
	if err != nil {
		return err
	}
	// Carve the snapshot from the transaction's arena, padded to the log's
	// 8-byte record granularity so logAppend can write it without a copy.
	padded := int((size + 7) &^ 7)
	old := t.st.scratch(padded)[:size] //potlint:allow noalloc arena doubles rarely; carves are recycled with the transaction
	if err := src.ReadBytes(0, old); err != nil {
		return err
	}
	return t.logAppend(recData, o, size, old)
}

// TxAddRange snapshots [o, o+size) into the ambient transaction's undo log
// (paper: tx_add_range).
func (h *Heap) TxAddRange(o oid.OID, size uint32) error {
	if h.ambient == nil {
		return fmt.Errorf("pmem: tx_add_range outside a transaction")
	}
	return h.ambient.AddRange(o, size)
}

// Alloc is a transactional allocation, undone if the transaction aborts.
// The paper's signature allocates from the transaction's pool; this
// implementation also accepts any open pool, which the multi-pool usage
// patterns (EACH/RANDOM) need. In concurrent mode the caller must hold the
// write lock of p's shard.
func (t *Tx) Alloc(p *Pool, size uint32) (oid.OID, error) {
	h := t.h
	// Write-ahead order: reserve the block first (span carve included — the
	// span publishes all-free, so it never needs undoing), persist the
	// recAlloc record, and only then flip the slot's occupancy bit. The bit
	// store stays volatile until commit, but the write-back cache can evict
	// — or a torn crash can retain — any unflushed line at any moment, so
	// the bit may reach the media the instant it is stored; flipping it
	// before the record is durable would let a crash in between leak the
	// slot forever (no record, nothing for recovery to clear). Recovery
	// decides the slot's fate from the bit, not from pointer threading
	// through the payload, so the pre-slab reuse hazard (durable free-list
	// head pointing at a block whose next word was overwritten with object
	// data) cannot arise and no extra fence is needed here.
	o, sp, slot, slab, err := h.allocReserve(p, size)
	if err != nil {
		return oid.Null, err
	}
	if err := t.logAppend(recAlloc, o, size, nil); err != nil {
		if slab {
			h.pushFree(p, o.Offset())
		}
		return oid.Null, err
	}
	if slab {
		if err := h.storeSlabBit(p, sp, slot, true); err != nil {
			return oid.Null, err
		}
	}
	return o, nil
}

// TxAlloc is tx_pmalloc on the ambient transaction.
func (h *Heap) TxAlloc(p *Pool, size uint32) (oid.OID, error) {
	if h.ambient == nil {
		return oid.Null, fmt.Errorf("pmem: tx_pmalloc outside a transaction")
	}
	return h.ambient.Alloc(p, size)
}

// Free logs a free-intent now and applies it at commit, so an abort leaves
// the object intact.
func (t *Tx) Free(o oid.OID) error {
	if _, ok := t.h.open[o.Pool()]; !ok {
		return fmt.Errorf("pmem: tx_pfree in unopened pool %d", o.Pool())
	}
	return t.logAppend(recFree, o, 0, nil)
}

// TxFree is tx_pfree on the ambient transaction.
func (h *Heap) TxFree(o oid.OID) error {
	if h.ambient == nil {
		return fmt.Errorf("pmem: tx_pfree outside a transaction")
	}
	return h.ambient.Free(o)
}

// resolveAllocPools returns the pools that served the transaction's
// allocations, in first-allocation order (deterministic emission order
// matters: the same program must produce a bit-identical instruction stream
// on every run). Resolution happens before commit/abort emit anything, so
// a closed pool fails the operation cleanly.
func (h *Heap) resolveAllocPools(st *txState, op string) ([]*Pool, error) {
	// Dedup by linear scan of the result (a handful of pools at most) into
	// the txState's reusable slice, so commit allocates nothing.
	pools := st.allocPools[:0]
outer:
	for _, r := range st.records {
		if r.kind != recAlloc {
			continue
		}
		for _, q := range pools {
			if q.b.id == r.oid.Pool() {
				continue outer
			}
		}
		p, ok := h.open[r.oid.Pool()]
		if !ok {
			return nil, fmt.Errorf("pmem: %s: alloc pool %d closed mid-transaction", op, r.oid.Pool())
		}
		pools = append(pools, p)
	}
	st.allocPools = pools
	return pools, nil
}

// Commit commits the transaction: all snapshotted ranges and transactional
// allocations are persisted (one fence for the batch), the allocator
// metadata of every pool that served an allocation is persisted, deferred
// frees are applied durably under a committed-state marker, and the log is
// truncated. On error the transaction stays open.
//
//potlint:noalloc
func (t *Tx) Commit() error {
	h, st := t.h, t.st
	allocPools, err := h.resolveAllocPools(st, "tx_end") //potlint:allow noalloc alloc-pool set is recycled with the tx state; growth is amortized
	if err != nil {
		return err
	}
	h.Emit.Jump()
	h.Emit.Compute(txEndWork)
	fence := false
	hasFree := false
	for _, r := range st.records {
		switch r.kind {
		case recData:
			if err := h.persistNoFence(r.oid, r.size); err != nil {
				return err
			}
			fence = true
		case recAlloc:
			if err := h.persistNoFence(r.oid, r.size); err != nil {
				return err
			}
			// The slot's occupancy bit (set volatile at Alloc) must reach
			// durability with the commit: persist the span's bitmap word.
			ap := h.open[r.oid.Pool()]
			if idx, _, ok := ap.alloc.lookup(r.oid.Offset()); ok { //potlint:allow noalloc lookup's search closure does not escape
				bmOID := ap.OID(ap.alloc.spans[idx].base + spanOffBitmap)
				if err := h.persistNoFence(bmOID, 8); err != nil {
					return err
				}
			}
			fence = true
		case recFree:
			hasFree = true
		}
	}
	for _, p := range allocPools {
		if err := h.persistNoFence(p.OID(0), allocMetaBytes); err != nil {
			return err
		}
		fence = true
	}
	if h.ftPools > 0 {
		// Bring checksums and parity of touched fault-tolerant pools up to
		// date under the same fence as the data they describe.
		synced, err := h.ftCommitSyncNoFence(st)
		if err != nil {
			return err
		}
		fence = fence || synced
	}
	if fence {
		// One fence covers every range this transaction touched — and, in
		// concurrent mode, every simultaneously-committing transaction's
		// ranges too (group commit, see Heap.fence).
		h.fence() //potlint:allow noalloc group-commit bookkeeping boxes a waiter only when commits overlap
	}
	if hasFree {
		// Commit point with deferred work: once the committed marker is
		// durable, a crash redoes the frees instead of undoing the
		// transaction.
		if err := h.setLogCommitted(st.pool); err != nil {
			return err
		}
		for _, r := range st.records {
			if r.kind == recFree {
				if err := h.freeDurable(r.oid); err != nil {
					return err
				}
			}
		}
	}
	if err := h.truncateLog(st.pool); err != nil {
		return err
	}
	if h.mvcc != nil {
		// Publish post-images after the commit point and before the Tx is
		// recycled; the epoch advance inside is the transaction's
		// visibility point for snapshot readers.
		if err := h.mvccPublish(st); err != nil {
			h.releaseTx(t)
			h.recycleTx(t)
			return err
		}
	}
	h.releaseTx(t)
	h.recycleTx(t) //potlint:allow noalloc tx free list grows amortized to the peak concurrency
	atomic.AddUint64(&h.Metrics.TxCommits, 1)
	return nil
}

// TxEnd commits the ambient transaction (paper: tx_end).
func (h *Heap) TxEnd() error {
	if h.ambient == nil {
		return fmt.Errorf("pmem: tx_end outside a transaction")
	}
	if err := h.ambient.Commit(); err != nil {
		return err
	}
	h.ambient = nil
	return nil
}

// Abort rolls the transaction back in place: snapshots are restored,
// transactional allocations are freed, deferred frees are dropped. The
// allocator metadata of alloc pools is persisted first so that the free
// list can never durably reference a block above the durable bump pointer.
func (t *Tx) Abort() error {
	h, st := t.h, t.st
	allocPools, err := h.resolveAllocPools(st, "tx_abort")
	if err != nil {
		return err
	}
	if len(allocPools) > 0 {
		for _, p := range allocPools {
			if err := h.persistNoFence(p.OID(0), allocMetaBytes); err != nil {
				return err
			}
		}
		h.fence()
	}
	for i := len(st.records) - 1; i >= 0; i-- {
		if err := h.undoRecord(st.records[i]); err != nil {
			return err
		}
	}
	if h.ftPools > 0 {
		// The rollback rewrote object bytes (and freed transactional
		// allocations whose payloads keep whatever the tx stored), so the
		// derived checksum and parity state must follow.
		synced, err := h.ftCommitSyncNoFence(st)
		if err != nil {
			return err
		}
		if synced {
			h.fence()
		}
	}
	if err := h.truncateLog(st.pool); err != nil {
		return err
	}
	h.releaseTx(t)
	h.recycleTx(t)
	atomic.AddUint64(&h.Metrics.TxAborts, 1)
	return nil
}

// TxAbort rolls the ambient transaction back (paper has no abort in
// Table 1; libpmemobj does).
func (h *Heap) TxAbort() error {
	if h.ambient == nil {
		return fmt.Errorf("pmem: tx_abort outside a transaction")
	}
	if err := h.ambient.Abort(); err != nil {
		return err
	}
	h.ambient = nil
	return nil
}

func (h *Heap) undoRecord(r txRecord) error {
	switch r.kind {
	case recData:
		dst, err := h.Deref(r.oid, isa.RZ)
		if err != nil {
			return err
		}
		buf := make([]byte, (len(r.old)+7)&^7)
		copy(buf, r.old)
		if err := dst.WriteBytes(0, buf); err != nil {
			return err
		}
		return h.Persist(r.oid, r.size)
	case recAlloc:
		return h.freeDurable(r.oid)
	case recFree:
		return nil // never applied
	default:
		return fmt.Errorf("pmem: corrupt undo record kind %d", r.kind)
	}
}

// setLogCommitted durably marks the log's records as describing a committed
// transaction whose deferred frees must be redone, not undone.
func (h *Heap) setLogCommitted(p *Pool) error {
	st := h.DirectRef(p, logStart+logOffState)
	if err := st.Store64(0, txStateCommitted, isa.RZ); err != nil {
		return err
	}
	return h.Persist(p.OID(logStart+logOffState), 8)
}

// clearLogState durably resets the state word to active.
func (h *Heap) clearLogState(p *Pool) error {
	st := h.DirectRef(p, logStart+logOffState)
	if err := st.Store64(0, txStateActive, isa.RZ); err != nil {
		return err
	}
	return h.Persist(p.OID(logStart+logOffState), 8)
}

// truncateLog retires the log: count first, then the state word, each under
// its own fence. The order matters — clearing state first could expose
// (count>0, active) for a committed transaction, which recovery would undo.
func (h *Heap) truncateLog(p *Pool) error {
	cnt := h.DirectRef(p, logStart+logOffCount)
	if err := cnt.Store64(0, 0, isa.RZ); err != nil {
		return err
	}
	if err := h.Persist(p.OID(logStart+logOffCount), 8); err != nil {
		return err
	}
	if h.read64(p, logStart+logOffState) != txStateActive {
		return h.clearLogState(p)
	}
	return nil
}

// Recover replays the pool's undo log after a crash (pool just reopened).
// An active log means the transaction never committed: its effects are
// rolled back in reverse order (allocations that never became durable are
// skipped). A committed log means every modified range is already durable
// and only the deferred frees may be half-applied: they are redone
// idempotently. Either way the log is then truncated. Records that
// reference other pools require those pools to be open.
//
// Recover persists everything it writes, so running it again — or crashing
// in the middle and running it again — converges to the same durable bytes.
func (h *Heap) Recover(p *Pool) error {
	// Recovery dereferences objects whose checksums are not yet restored;
	// stand VerifyOnRead down for the duration.
	atomic.AddInt32(&h.txActive, 1)
	defer atomic.AddInt32(&h.txActive, -1)
	count := h.read64(p, logStart+logOffCount)
	state := h.read64(p, logStart+logOffState)
	if count == 0 {
		if state != txStateActive {
			// Crash between the two truncation fences: the records are
			// gone, only the stale marker remains.
			return h.clearLogState(p)
		}
		return nil
	}
	// Parse the records straight from the persisted log bytes.
	type parsed struct {
		kind uint64
		oid  oid.OID
		size uint32
		old  []byte
	}
	var recs []parsed
	off := uint64(logStart + logOffRecords)
	for i := uint64(0); i < count; i++ {
		hdr := make([]byte, recHeaderBytes)
		if err := h.AS.ReadAt(p.region.Base+off, hdr); err != nil {
			return fmt.Errorf("pmem: recover %q: %w", p.b.name, err)
		}
		kind := binary.LittleEndian.Uint64(hdr[0:])
		target := oid.OID(binary.LittleEndian.Uint64(hdr[8:]))
		size := uint32(binary.LittleEndian.Uint64(hdr[16:]))
		padded := uint64((size + 7) &^ 7)
		var old []byte
		if kind == recData {
			old = make([]byte, padded)
			if err := h.AS.ReadAt(p.region.Base+off+recHeaderBytes, old); err != nil {
				return fmt.Errorf("pmem: recover %q: %w", p.b.name, err)
			}
			old = old[:size]
		}
		if kind == recAlloc {
			padded = 0
		}
		if kind == recFree {
			padded = 0
		}
		recs = append(recs, parsed{kind: kind, oid: target, size: size, old: old})
		off += recHeaderBytes + padded
	}
	if state == txStateCommitted {
		// Redo: data and allocations were persisted before the marker;
		// only the deferred frees need (re-)applying.
		for _, r := range recs {
			if r.kind == recFree {
				if err := h.recoverFree(r.oid); err != nil {
					return err
				}
			}
		}
		return h.truncateLog(p)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		switch r.kind {
		case recData:
			if err := h.undoRecord(txRecord{kind: r.kind, oid: r.oid, size: r.size, old: r.old}); err != nil {
				return err
			}
		case recAlloc:
			// A slab allocation's span was durable before the recAlloc
			// record existed (carve persists before publication), so the
			// span lookup resolves and recoverFree clears the slot from
			// whichever bit state the crash left. A miss means a large
			// (bump) allocation: nothing to undo — if its bump advance
			// survived, the bytes leak, exactly as before.
			ap, ok := h.open[r.oid.Pool()]
			if !ok {
				return fmt.Errorf("pmem: recover: alloc pool %d not open", r.oid.Pool())
			}
			if _, _, ok := ap.alloc.lookup(r.oid.Offset()); !ok {
				continue
			}
			if err := h.recoverFree(r.oid); err != nil {
				return err
			}
		case recFree:
			// Never applied before commit.
		default:
			return fmt.Errorf("pmem: corrupt undo record kind %d", r.kind)
		}
	}
	if h.ftPools > 0 {
		// The rollback rewrote object bytes; recompute the checksums and
		// parity of every range it touched before the pool is used again.
		for _, r := range recs {
			if r.kind == recFree {
				continue
			}
			if err := h.ftRecoverRange(r.oid, r.size); err != nil {
				return err
			}
		}
	}
	return h.truncateLog(p)
}

// NeedsRecovery reports whether the pool's log holds state from an
// interrupted transaction (records to undo/redo, or a stale marker).
func (h *Heap) NeedsRecovery(p *Pool) bool {
	return h.read64(p, logStart+logOffCount) != 0 ||
		h.read64(p, logStart+logOffState) != txStateActive
}
