package pmem

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"potgo/internal/core"
	"potgo/internal/emit"
	"potgo/internal/isa"
	"potgo/internal/nvmsim"
	"potgo/internal/obs"
	"potgo/internal/oid"
	"potgo/internal/pot"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

// Heap is a process's view of persistent memory: the set of open pools plus
// the machinery that compiles persistent accesses into the instruction
// stream (software translation in BASE mode, nvld/nvst in OPT mode).
type Heap struct {
	// AS is the process address space pools are mapped into.
	AS *vm.AddressSpace
	// Store is the durable pool store.
	Store *Store
	// Emit receives the compiled instruction stream.
	Emit *emit.Emitter
	// Soft is the BASE-mode software translator. Required when
	// Emit.Mode() == emit.Base.
	Soft *emit.SoftTranslator
	// POT, when non-nil, receives pool mappings for the hardware walker
	// (the OS-level half of pool_open in the paper's §3.3).
	POT *pot.Table
	// HW, when non-nil, has stale POLB entries invalidated on pool_close.
	HW *core.Translator
	// NV is the volatile write-back cache model: it tracks which pool
	// lines are newer in cache than in durable NVM, drains them on
	// fences, and decides their fate at a Crash.
	NV *nvmsim.Domain

	// Metrics counts library activity for the observability layer.
	// Updated with atomic adds so concurrent heaps never race; read a
	// coherent copy through StatsSnapshot.
	Metrics HeapStats

	open map[oid.PoolID]*Pool
	// byBase finds an open pool from the base of its mapped region, so a
	// virtual address resolves through the address space's region index.
	byBase map[uint64]*Pool
	// txs tracks the live transaction per pool (an undo log is singular).
	// Guarded by txMu; independent pools commit in parallel.
	txMu sync.Mutex
	txs  map[oid.PoolID]*Tx
	// txFree recycles retired Tx handles (and their snapshot arenas) so a
	// steady-state commit loop stops allocating. Guarded by txMu.
	txFree []*Tx
	// ambient is the legacy single-transaction API's implicit handle.
	ambient *Tx
	// clwbPool memoizes the pool the last observed CLWB landed in;
	// persist loops write back runs of lines from one pool. Disabled in
	// concurrent mode (unsynchronized cross-goroutine state).
	clwbPool *Pool

	// concurrent marks a heap shared by multiple goroutines (see
	// SetConcurrent): the persistence domain is serialized behind nvMu
	// and single-threaded memos are bypassed.
	concurrent bool
	nvMu       sync.Mutex
	gc         groupCommit

	// verifyOnRead makes Deref of an object in a fault-tolerant pool
	// check its stored CRC32C first (see SetVerifyOnRead).
	verifyOnRead bool
	// txActive counts live transactions; VerifyOnRead stands down while
	// any is open, because checksums are only recomputed at commit.
	txActive int32
	// ftNoParity disables parity-column maintenance — a deliberately
	// injected bug for the CI mutation check (see MutateNoParity).
	ftNoParity bool
	// ftDefault routes Create/CreateSized to the fault-tolerant layout
	// (see SetFTDefault); the size grows by the parity column so data
	// capacity is unchanged.
	ftDefault bool
	// ftPools counts open fault-tolerant pools, so commit's checksum and
	// parity maintenance costs one compare on heaps that have none.
	ftPools int

	// mvcc is the epoch-versioned snapshot mirror (see mvcc.go), nil until
	// EnableMVCC attaches it; heaps that never enable it pay one nil check
	// per commit.
	mvcc *MVCC
}

// groupCommit coordinates group commit: concurrently-committing goroutines
// that reach a fence point share one leader-issued SFENCE instead of each
// draining the domain themselves (see Heap.fence).
type groupCommit struct {
	mu   sync.Mutex
	cond *sync.Cond
	// collecting marks a leader holding the batch open for new arrivals;
	// fencing marks the batch sealed with its SFENCE in flight.
	collecting, fencing bool
	// gen counts completed fences; arrivals compute the generation whose
	// completion guarantees a fence started after their own CLWBs.
	gen     uint64
	waiters uint64
	// dead is set when the leader's fence crashed (armed crash injection):
	// the machine is gone, so woken waiters propagate a poisoned signal
	// instead of claiming durability.
	dead bool
	// batchHist, when attached (AttachObs), records each batch's size —
	// how many committers one leader SFENCE covered.
	batchHist *obs.Histogram
}

// fence orders all prior cache-line write-backs: the paper's SFENCE. In
// sequential mode it emits the fence directly. In concurrent mode it runs
// the group-commit protocol: because one SFENCE drains every in-flight line
// in the persistence domain (all pools, all writers), simultaneous
// committers can share a single fence — the first arrival becomes leader,
// briefly holds the batch open for followers, issues one SFENCE, and
// releases everyone whose write-backs preceded it. Followers' CLWBs
// happen-before their arrival (both run under the domain lock), so the
// leader's fence covers them; arrivals after the batch seals wait for the
// next generation's fence.
func (h *Heap) fence() {
	if !h.concurrent {
		h.Emit.SFence()
		return
	}
	h.groupFence()
}

func (h *Heap) groupFence() {
	gc := &h.gc
	gc.mu.Lock()
	if gc.cond == nil {
		gc.cond = sync.NewCond(&gc.mu)
	}
	// A fence already in flight started before our arrival and may have
	// missed our lines; only a fence that starts now or later (generation
	// gen+2) is guaranteed to cover us.
	need := gc.gen + 1
	if gc.fencing {
		need = gc.gen + 2
	}
	for gc.gen < need {
		if gc.dead {
			gc.mu.Unlock()
			panic(&nvmsim.CrashSignal{Poisoned: true})
		}
		if !gc.fencing && !gc.collecting {
			// Become leader. Hold the batch open across one scheduling
			// window so concurrently-committing goroutines can reach
			// their fence points and share this SFENCE.
			gc.collecting = true
			gc.mu.Unlock()
			runtime.Gosched()
			gc.mu.Lock()
			gc.collecting = false
			gc.fencing = true
			batch := 1 + gc.waiters
			gc.mu.Unlock()
			h.leaderFence()
			gc.mu.Lock()
			gc.fencing = false
			gc.gen++
			gc.cond.Broadcast()
			atomic.AddUint64(&h.Metrics.GroupCommits, 1)
			atomic.AddUint64(&h.Metrics.GroupCommitTxns, batch)
			gc.batchHist.Observe(float64(batch))
			continue
		}
		gc.waiters++
		gc.cond.Wait()
		gc.waiters--
	}
	gc.mu.Unlock()
}

// leaderFence issues the batch's single SFENCE. If the armed crash engine
// fires inside it, the domain is gone mid-batch: mark the group dead and
// wake the waiters (who panic poisoned) before propagating the signal.
func (h *Heap) leaderFence() {
	defer func() {
		if r := recover(); r != nil {
			gc := &h.gc
			gc.mu.Lock()
			gc.dead = true
			gc.cond.Broadcast()
			gc.mu.Unlock()
			panic(r)
		}
	}()
	h.Emit.SFence()
}

// StatsSnapshot returns a coherent copy of the heap's activity counters
// (atomic loads, safe while workers are running).
func (h *Heap) StatsSnapshot() HeapStats {
	var mvPub, mvRec uint64
	if h.mvcc != nil {
		mvPub, mvRec = h.mvcc.Stats()
	}
	return HeapStats{
		MVCCPublishes:   mvPub,
		MVCCReclaimed:   mvRec,
		TxBegins:        atomic.LoadUint64(&h.Metrics.TxBegins),
		TxCommits:       atomic.LoadUint64(&h.Metrics.TxCommits),
		TxAborts:        atomic.LoadUint64(&h.Metrics.TxAborts),
		UndoRecords:     atomic.LoadUint64(&h.Metrics.UndoRecords),
		UndoBytes:       atomic.LoadUint64(&h.Metrics.UndoBytes),
		Allocs:          atomic.LoadUint64(&h.Metrics.Allocs),
		Frees:           atomic.LoadUint64(&h.Metrics.Frees),
		AllocBytes:      atomic.LoadUint64(&h.Metrics.AllocBytes),
		SpansCarved:     atomic.LoadUint64(&h.Metrics.SpansCarved),
		GroupCommits:    atomic.LoadUint64(&h.Metrics.GroupCommits),
		GroupCommitTxns: atomic.LoadUint64(&h.Metrics.GroupCommitTxns),
		Persists:        atomic.LoadUint64(&h.Metrics.Persists),
		PoolsCreated:    atomic.LoadUint64(&h.Metrics.PoolsCreated),
		PoolsOpened:     atomic.LoadUint64(&h.Metrics.PoolsOpened),
	}
}

// HeapStats counts persistent-memory library activity.
type HeapStats struct {
	// TxBegins / TxCommits / TxAborts count transaction lifecycle calls.
	TxBegins, TxCommits, TxAborts uint64
	// UndoRecords counts undo-log records appended (tx_add_range
	// snapshots, transactional allocations and free intents together);
	// UndoBytes is their durable log footprint including headers.
	UndoRecords, UndoBytes uint64
	// Allocs / Frees count pmalloc/pfree operations (transactional and
	// not); AllocBytes is the total payload requested.
	Allocs, Frees, AllocBytes uint64
	// SpansCarved counts slab spans cut off the bump region.
	SpansCarved uint64
	// GroupCommits counts leader fences issued by the group-commit
	// protocol; GroupCommitTxns is the total number of committers those
	// fences covered (batch size = GroupCommitTxns / GroupCommits).
	GroupCommits, GroupCommitTxns uint64
	// Persists counts Persist range flushes (CLWB runs + fence).
	Persists uint64
	// PoolsCreated / PoolsOpened count pool_create / pool_open calls.
	PoolsCreated, PoolsOpened uint64
	// MVCCPublishes / MVCCReclaimed count snapshot versions entering the
	// mirror (commits and mount-time seeds) and leaving it (epoch
	// reclamation, and whatever a crash's reset drops); their difference
	// is the number of versions the mirror holds (zero on heaps without
	// MVCC).
	MVCCPublishes, MVCCReclaimed uint64
}

// NewHeap builds a heap. soft may be nil for OPT-mode heaps.
func NewHeap(as *vm.AddressSpace, store *Store, em *emit.Emitter, soft *emit.SoftTranslator) (*Heap, error) {
	if em.Mode() == emit.Base && soft == nil {
		return nil, fmt.Errorf("pmem: BASE mode requires a software translator")
	}
	h := &Heap{
		AS:     as,
		Store:  store,
		Emit:   em,
		Soft:   soft,
		NV:     nvmsim.NewDomain(),
		open:   make(map[oid.PoolID]*Pool),
		byBase: make(map[uint64]*Pool),
		txs:    make(map[oid.PoolID]*Tx),
	}
	em.SetPersistObserver(h)
	return h, nil
}

// SetConcurrent marks the heap as shared by multiple goroutines. From this
// point on:
//
//   - every persistence-domain event (store dirtying, CLWB, SFENCE) is
//     serialized behind an internal mutex, so the volatile-cache model and
//     its crash-event numbering stay coherent;
//   - single-threaded memos (the CLWB pool cache) are bypassed;
//   - the caller must still serialize access to each pool's data — the
//     heap does not lock pools. Sharded provides that discipline, along
//     with stop-the-world structural operations (create/open/close/crash).
//
// The emitter should be detached (Emit.Detach) and the address space put in
// concurrent mode (AS.SetConcurrent) alongside; NewSharded does all three.
func (h *Heap) SetConcurrent() {
	h.concurrent = true
	h.clwbPool = nil
}

// NewHeapDiscard builds an OPT-mode heap that discards its instruction
// stream — the configuration crash-injection and fuzzing harnesses use,
// where only the persistence-domain events matter, not the emitted code.
func NewHeapDiscard(as *vm.AddressSpace, store *Store) (*Heap, error) {
	return NewHeap(as, store, emit.New(trace.Discard{}, emit.Opt), nil)
}

// openCost approximates the system-call + mapping work of pool_open/create;
// it is emitted once per pool and never sits in a measured loop.
const openCost = 60

// Create makes a new pool of the given size (paper: pool_create) with the
// default undo-log capacity, maps it, and registers its translation.
func (h *Heap) Create(name string, size uint64) (*Pool, error) {
	return h.CreateSized(name, size, DefaultLogBytes)
}

// CreateSized is Create with an explicit undo-log capacity.
func (h *Heap) CreateSized(name string, size, logBytes uint64) (*Pool, error) {
	if h.ftDefault {
		return h.CreateSizedFT(name, ftGrow(size, logBytes), logBytes)
	}
	if size < MinPoolBytes(logBytes) {
		return nil, fmt.Errorf("pmem: pool size %d below minimum %d", size, MinPoolBytes(logBytes))
	}
	return h.createPool(name, size, logBytes, 0)
}

// createPool makes, maps and initialises a pool whose size has been checked.
func (h *Heap) createPool(name string, size, logBytes, parityBytes uint64) (*Pool, error) {
	b, err := h.Store.create(name, size, logBytes, parityBytes)
	if err != nil {
		return nil, err
	}
	p, err := h.mapPool(b)
	if err != nil {
		// The backing was never initialised; leave the name free.
		_ = h.Store.Delete(name)
		return nil, err
	}
	// Initialize the header (functional writes; creation is setup, the
	// emitted cost is the flat openCost below) and sync it durably —
	// pool_create ends with the equivalent of an msync, so a crash can
	// never observe a half-initialized header.
	h.mustWrite64(p, offMagic, poolMagic)
	h.mustWrite64(p, offSize, size)
	h.mustWrite64(p, offBump, p.dataStart())
	h.mustWrite64(p, offLogBytes, logBytes)
	if parityBytes != 0 {
		h.mustWrite64(p, offParityBytes, parityBytes)
	}
	if err := h.SyncPool(p); err != nil {
		return nil, err
	}
	h.Emit.Compute(openCost)
	atomic.AddUint64(&h.Metrics.PoolsCreated, 1)
	return p, nil
}

// Open maps a previously created pool (paper: pool_open).
func (h *Heap) Open(name string) (*Pool, error) {
	b, err := h.Store.lookup(name)
	if err != nil {
		return nil, err
	}
	p, err := h.mapPool(b)
	if err != nil {
		return nil, err
	}
	if got := h.read64(p, offMagic); got != poolMagic {
		_ = h.unmapPool(p)
		return nil, fmt.Errorf("pmem: pool %q has bad magic %#x", name, got)
	}
	h.Emit.Compute(openCost)
	atomic.AddUint64(&h.Metrics.PoolsOpened, 1)
	return p, nil
}

// mapPool maps a pool and registers its translations. Everything that can
// fail comes before the pool is entered in the heap's tables, and each
// failure undoes the steps before it, so an error leaves no trace.
func (h *Heap) mapPool(b *backing) (*Pool, error) {
	if b.open {
		return nil, fmt.Errorf("pmem: pool %q already open", b.name)
	}
	region, err := h.AS.Map(b.size)
	if err != nil {
		return nil, err
	}
	if h.Soft != nil {
		if err := h.Soft.Register(b.id, region.Base); err != nil {
			_ = h.AS.Unmap(region)
			return nil, err
		}
	}
	if h.POT != nil {
		if err := h.POT.Insert(b.id, region.Base); err != nil {
			if h.Soft != nil {
				_ = h.Soft.Unregister(b.id)
			}
			_ = h.AS.Unmap(region)
			return nil, err
		}
	}
	// Copy in every durable page that exists (the map-time invariant, see
	// backing.pages); the rest of the region stays demand-zero.
	for i, pg := range b.pages {
		if pg != nil {
			if err := h.AS.WriteAt(region.Base+uint64(i)<<vm.PageShift, pg[:]); err != nil {
				panic(fmt.Sprintf("pmem: pool %q unmapped under mapPool: %v", b.name, err))
			}
		}
	}
	p := &Pool{h: h, b: b, region: region, alloc: &allocState{}}
	b.open = true
	h.open[b.id] = p
	h.byBase[region.Base] = p
	if b.parityBytes != 0 {
		h.ftPools++
	}
	h.NV.AddPool(uint32(b.id), b.size)
	// Rebuild the volatile slab index from the durable span chains. A
	// freshly created backing has no magic yet (createPool initializes the
	// header after mapping and starts with no spans); Open re-checks the
	// magic and fails cleanly.
	if h.read64(p, offMagic) == poolMagic {
		if err := h.rebuildAllocState(p); err != nil {
			_ = h.discardPool(p)
			return nil, err
		}
	}
	return p, nil
}

// writeBack makes the pool's durable image equal to its cache view, page by
// page: a frame that was written is copied; a frame that never was reads as
// zeros, so its durable page is absent (by the map-time invariant it already
// was, and only the touched frames cost anything).
func (h *Heap) writeBack(p *Pool) {
	for i := range p.b.pages {
		off := uint32(i) << vm.PageShift
		if pg := h.AS.ResidentPage(p.region.Base + uint64(off)); pg != nil {
			*p.b.pageForWrite(off) = *pg
		} else {
			p.b.pages[i] = nil
		}
	}
}

func (h *Heap) unmapPool(p *Pool) error {
	// A clean unmap flushes the mapped bytes back to the durable store
	// (the OS writes dirty pages back on munmap of a file mapping).
	h.writeBack(p)
	return h.discardPool(p)
}

// discardPool unmaps a pool without writing the cache view back: whatever
// the durable bytes hold at this point is what survives.
func (h *Heap) discardPool(p *Pool) error {
	if err := h.AS.Unmap(p.region); err != nil {
		return err
	}
	p.b.open = false
	delete(h.open, p.b.id)
	delete(h.byBase, p.region.Base)
	if p.b.parityBytes != 0 {
		h.ftPools--
	}
	h.NV.DropPool(uint32(p.b.id))
	h.clwbPool = nil
	if h.Soft != nil {
		if err := h.Soft.Unregister(p.b.id); err != nil {
			return err
		}
	}
	if h.POT != nil {
		if err := h.POT.Remove(p.b.id); err != nil {
			return err
		}
	}
	if h.HW != nil {
		h.HW.InvalidatePool(p.b.id)
	}
	return nil
}

// SyncPool flushes a pool's entire cache view to the durable store (the
// msync analogue): after it returns, cache and durable views agree and no
// line of the pool is volatile. Bulk setup phases (pool creation, database
// population) end with a SyncPool, so the crash engine's adversary only
// operates on the stores made after it.
func (h *Heap) SyncPool(p *Pool) error {
	h.writeBack(p)
	h.NV.Clean(uint32(p.b.id))
	return nil
}

// SyncAll is SyncPool over every open pool, in pool-id order so the
// instruction/event stream stays deterministic.
func (h *Heap) SyncAll() error {
	ids := make([]oid.PoolID, 0, len(h.open))
	for id := range h.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := h.SyncPool(h.open[id]); err != nil {
			return err
		}
	}
	return nil
}

// Close unmaps the pool and withdraws its translations (paper: pool_close).
func (h *Heap) Close(p *Pool) error {
	if h.poolBusy(p) {
		return fmt.Errorf("pmem: pool %q has an active transaction", p.b.name)
	}
	h.Emit.Compute(openCost / 2)
	return h.unmapPool(p)
}

// Crash simulates losing power. What a fence made durable is durable; the
// fate of every other volatile line is decided by the adversarial policy
// (see nvmsim): dropped, kept (a cache eviction that happened to complete),
// or torn at 8-byte granularity. All process state — open handles,
// transactions, translations — is lost. Reopen the pool and call Recover
// to restore consistency. The report records the exact survivor set so the
// outcome can be replayed with an Explicit policy.
func (h *Heap) Crash(pol nvmsim.Policy) (nvmsim.Report, error) {
	rep := h.NV.Crash(pol, h)
	for _, p := range h.open {
		if err := h.discardPool(p); err != nil {
			return rep, err
		}
	}
	h.dropAllTxs()
	h.resetGroupCommit()
	if h.mvcc != nil {
		// The version mirror is volatile: the crash takes it with the
		// machine. The store reseeds it from recovered bytes at remount.
		h.mvcc.Reset()
	}
	return rep, nil
}

// resetGroupCommit clears the group-commit coordinator across a simulated
// power cycle: the goroutines that died with the machine took their batch
// with them, and the rebooted process starts with a live fence path.
func (h *Heap) resetGroupCommit() {
	gc := &h.gc
	gc.mu.Lock()
	gc.collecting = false
	gc.fencing = false
	gc.waiters = 0
	gc.dead = false
	if gc.cond != nil {
		gc.cond.Broadcast()
	}
	gc.mu.Unlock()
}

// CrashClean simulates the gentlest possible failure: the machine stops,
// but every volatile line happens to have been written back first — the
// durable image equals the cache view, exactly as if the caches were
// flushed at the instant of death. Process state is still lost, so an
// interrupted transaction's undo log remains live and must be recovered.
// The recovery-cost experiment uses this to measure log replay in
// isolation from line loss.
func (h *Heap) CrashClean() error {
	for _, p := range h.open {
		if err := h.unmapPool(p); err != nil {
			return err
		}
	}
	h.dropAllTxs()
	h.resetGroupCommit()
	if h.mvcc != nil {
		h.mvcc.Reset()
	}
	return nil
}

// Pool returns the open pool with the given id.
func (h *Heap) Pool(id oid.PoolID) (*Pool, bool) {
	p, ok := h.open[id]
	return p, ok
}

// OpenPools returns the number of currently open pools.
func (h *Heap) OpenPools() int { return len(h.open) }

// vaOf resolves an ObjectID to its current virtual address (functional; no
// emission).
func (h *Heap) vaOf(o oid.OID) (uint64, error) {
	p, ok := h.open[o.Pool()]
	if !ok {
		return 0, fmt.Errorf("pmem: pool %d not open for %v", o.Pool(), o)
	}
	return p.region.Base + uint64(o.Offset()), nil
}

// --- direct byte access helpers (functional, no emission) ---

func (h *Heap) read64(p *Pool, off uint32) uint64 {
	v, err := h.AS.Read64(p.region.Base + uint64(off))
	if err != nil {
		panic(fmt.Sprintf("pmem: pool %q header unmapped: %v", p.b.name, err))
	}
	return v
}

func (h *Heap) mustWrite64(p *Pool, off uint32, v uint64) {
	h.nvStore(uint32(p.b.id), off, 8)
	if err := h.AS.Write64(p.region.Base+uint64(off), v); err != nil {
		panic(fmt.Sprintf("pmem: pool %q header unmapped: %v", p.b.name, err))
	}
}

// nvStore feeds one store event into the persistence domain, serialized in
// concurrent mode. The deferred unlock matters: an armed domain crashes by
// panicking mid-event, and the lock must not stay held while the signal
// unwinds through a worker.
func (h *Heap) nvStore(pool, off, size uint32) {
	if h.concurrent {
		h.nvMu.Lock()
		defer h.nvMu.Unlock()
	}
	h.NV.Store(pool, off, size)
}

// --- persistence-domain plumbing (nvmsim.Memory + emit.PersistObserver) ---

// poolOf resolves a virtual address to the open pool containing it.
func (h *Heap) poolOf(va uint64) *Pool {
	if !h.concurrent {
		if p := h.clwbPool; p != nil && p.b.open &&
			va >= p.region.Base && va < p.region.Base+p.b.size {
			return p
		}
	}
	r, ok := h.AS.RegionOf(va)
	if !ok {
		return nil
	}
	p := h.byBase[r.Base]
	if p == nil || va >= r.Base+p.b.size {
		return nil
	}
	if !h.concurrent {
		h.clwbPool = p
	}
	return p
}

// ObserveCLWB feeds every emitted cache-line write-back into the volatile
// write-back model (emit.PersistObserver).
func (h *Heap) ObserveCLWB(va uint64) {
	if p := h.poolOf(va); p != nil {
		if h.concurrent {
			h.nvMu.Lock()
			defer h.nvMu.Unlock()
		}
		h.NV.CLWB(uint32(p.b.id), uint32(va-p.region.Base), h)
	}
}

// ObserveSFence drains every in-flight line to the durable store
// (emit.PersistObserver).
func (h *Heap) ObserveSFence() {
	if h.concurrent {
		h.nvMu.Lock()
		defer h.nvMu.Unlock()
	}
	h.NV.SFence(h)
}

// ReadCacheLine copies a line's current mapped (cache-view) content
// (nvmsim.Memory).
func (h *Heap) ReadCacheLine(pool, off uint32, dst *[nvmsim.LineBytes]byte) bool {
	p, ok := h.open[oid.PoolID(pool)]
	if !ok {
		return false
	}
	return h.AS.ReadAt(p.region.Base+uint64(off), dst[:]) == nil
}

// WriteDurableWords writes the selected 8-byte words of a line into the
// pool's durable backing bytes (nvmsim.Memory).
func (h *Heap) WriteDurableWords(pool, off uint32, src *[nvmsim.LineBytes]byte, mask byte) {
	p, ok := h.open[oid.PoolID(pool)]
	if !ok {
		return
	}
	line := p.b.pageForWrite(off)[off&vm.PageMask:][:nvmsim.LineBytes]
	if mask == 0xFF { // a fence drains whole lines
		copy(line, src[:])
		return
	}
	for w := 0; w < nvmsim.LineBytes/8; w++ {
		if mask&(1<<w) != 0 {
			copy(line[w*8:w*8+8], src[w*8:(w+1)*8])
		}
	}
}

// ReadDurableLine copies a line's durable backing content (nvmsim.Memory);
// the media-fault injector flips bits in what it reads here.
func (h *Heap) ReadDurableLine(pool, off uint32, dst *[nvmsim.LineBytes]byte) bool {
	p, ok := h.open[oid.PoolID(pool)]
	if !ok || uint64(off)+nvmsim.LineBytes > p.b.size {
		return false
	}
	if pg := p.b.page(off); pg != nil {
		copy(dst[:], pg[off&vm.PageMask:])
	} else {
		*dst = [nvmsim.LineBytes]byte{}
	}
	return true
}

// WriteCacheLine overwrites a line's mapped cache-view content
// (nvmsim.Memory); the media-fault injector uses it to make a flip in a
// clean line visible to the running program, modelling a load that
// refilled the line from the corrupted media.
func (h *Heap) WriteCacheLine(pool, off uint32, src *[nvmsim.LineBytes]byte) bool {
	p, ok := h.open[oid.PoolID(pool)]
	if !ok {
		return false
	}
	return h.AS.WriteAt(p.region.Base+uint64(off), src[:]) == nil
}

// Word is a 64-bit value loaded from persistent memory together with the
// register that holds it, so later emitted instructions can depend on it.
type Word struct {
	Reg isa.Reg
	V   uint64
}

// OID interprets the word as an ObjectID.
func (w Word) OID() oid.OID { return oid.OID(w.V) }

// Ref is a dereferenced persistent object: the result of translating an
// ObjectID once and then accessing fields relative to it, mirroring the
// paper's `temp = oid_direct(new_oid); temp->value = ...; temp->next = ...`
// idiom. In BASE mode constructing a Ref emits one oid_direct call; in OPT
// mode it is free because every field access is its own nvld/nvst.
type Ref struct {
	h   *Heap
	oid oid.OID
	va  uint64
	// reg holds the translated address (BASE) or the ObjectID (OPT);
	// field accesses depend on it.
	reg isa.Reg
	// direct marks a library-internal reference that accesses memory
	// through a cached virtual pointer in both modes (see DirectRef).
	direct bool
}

// DirectRef returns a reference that always compiles to regular loads and
// stores on the pool's mapped virtual addresses, in both BASE and OPT
// modes. It models how the library accesses its *own* metadata — the
// allocator header, block headers and the undo log — through direct
// pointers cached when the pool was opened (exactly as libpmemobj does);
// only API-level object references pay ObjectID translation.
func (h *Heap) DirectRef(p *Pool, off uint32) Ref {
	return Ref{h: h, oid: p.OID(off), va: p.region.Base + uint64(off), direct: true}
}

// useVA reports whether the reference compiles to regular virtual-address
// accesses (BASE or FIXED mode, or a direct library-internal reference).
func (r Ref) useVA() bool { return r.direct || r.h.Emit.Mode() != emit.Opt }

// Deref translates an ObjectID for subsequent field accesses. oidReg is the
// register holding the ObjectID value (isa.RZ if it came from an immediate).
func (h *Heap) Deref(o oid.OID, oidReg isa.Reg) (Ref, error) {
	va, err := h.vaOf(o)
	if err != nil {
		return Ref{}, err
	}
	if h.verifyOnRead {
		if err := h.verifyOnDeref(o); err != nil {
			return Ref{}, err
		}
	}
	if h.Emit.Mode() == emit.Base {
		vaReg, va2, err := h.Soft.Translate(oidReg, o)
		if err != nil {
			return Ref{}, err
		}
		if va2 != va {
			return Ref{}, fmt.Errorf("pmem: translation mismatch for %v: %#x vs %#x", o, va, va2)
		}
		return Ref{h: h, oid: o, va: va, reg: vaReg}, nil
	}
	return Ref{h: h, oid: o, va: va, reg: oidReg}, nil
}

// OID returns the ObjectID the Ref was created from.
func (r Ref) OID() oid.OID { return r.oid }

// Load64 reads the 8-byte field at byte offset off.
func (r Ref) Load64(off uint32) (Word, error) {
	v, err := r.h.AS.Read64(r.va + uint64(off))
	if err != nil {
		return Word{}, fmt.Errorf("pmem: load %v+%d: %w", r.oid, off, err)
	}
	dst := r.h.Emit.Temp()
	if r.useVA() {
		r.h.Emit.Load(dst, r.reg, r.va+uint64(off), 8)
	} else {
		r.h.Emit.NVLoad(dst, r.reg, r.oid.FieldAt(off), 8)
	}
	return Word{Reg: dst, V: v}, nil
}

// Store64 writes the 8-byte field at byte offset off. dep is the register
// the stored value was computed in (isa.RZ for immediates).
func (r Ref) Store64(off uint32, v uint64, dep isa.Reg) error {
	r.h.nvStore(uint32(r.oid.Pool()), r.oid.Offset()+off, 8)
	if err := r.h.AS.Write64(r.va+uint64(off), v); err != nil {
		return fmt.Errorf("pmem: store %v+%d: %w", r.oid, off, err)
	}
	if r.useVA() {
		r.h.Emit.Store(r.reg, r.va+uint64(off), 8, dep)
	} else {
		r.h.Emit.NVStore(r.reg, r.oid.FieldAt(off), 8, dep)
	}
	return nil
}

// ReadBytes reads len(b) bytes starting at off, emitting one load per
// 8-byte word.
func (r Ref) ReadBytes(off uint32, b []byte) error {
	if err := r.h.AS.ReadAt(r.va+uint64(off), b); err != nil {
		return fmt.Errorf("pmem: read %v+%d: %w", r.oid, off, err)
	}
	for w := uint32(0); w < uint32(len(b)); w += 8 {
		dst := r.h.Emit.Temp()
		if r.useVA() {
			r.h.Emit.Load(dst, r.reg, r.va+uint64(off+w), 8)
		} else {
			r.h.Emit.NVLoad(dst, r.reg, r.oid.FieldAt(off+w), 8)
		}
	}
	return nil
}

// WriteBytes writes b starting at off, emitting one store per 8-byte word.
// Each word is written (and becomes a crash-point event) individually, so
// a crash can land between any two words of the range.
func (r Ref) WriteBytes(off uint32, b []byte) error {
	for w := uint32(0); w < uint32(len(b)); w += 8 {
		n := uint32(len(b)) - w
		if n > 8 {
			n = 8
		}
		r.h.nvStore(uint32(r.oid.Pool()), r.oid.Offset()+off+w, n)
		if err := r.h.AS.WriteAt(r.va+uint64(off+w), b[w:w+n]); err != nil {
			return fmt.Errorf("pmem: write %v+%d: %w", r.oid, off, err)
		}
		if r.useVA() {
			r.h.Emit.Store(r.reg, r.va+uint64(off+w), 8, isa.RZ)
		} else {
			r.h.Emit.NVStore(r.reg, r.oid.FieldAt(off+w), 8, isa.RZ)
		}
	}
	return nil
}

// Direct is the paper's oid_direct: it translates an ObjectID to a virtual
// address in software, emitting the Figure 3 sequence. It exists for
// BASE-mode code; OPT-mode programs dereference ObjectIDs directly.
//
//potlint:allow unusedexport kept for TestDirectOnlyInBase
func (h *Heap) Direct(o oid.OID) (uint64, error) {
	if h.Emit.Mode() != emit.Base {
		return 0, fmt.Errorf("pmem: Direct called in OPT mode; dereference the ObjectID instead")
	}
	_, va, err := h.Soft.Translate(isa.RZ, o)
	return va, err
}

// Persist makes [o, o+size) durable (paper: persist): one CLWB per cache
// line followed by an SFENCE.
func (h *Heap) Persist(o oid.OID, size uint32) error {
	if err := h.persistNoFence(o, size); err != nil {
		return err
	}
	h.fence()
	atomic.AddUint64(&h.Metrics.Persists, 1)
	return nil
}

// persistNoFence emits the CLWBs for a range without the trailing fence so
// that batched persists (transaction commit) can share one SFENCE.
func (h *Heap) persistNoFence(o oid.OID, size uint32) error {
	va, err := h.vaOf(o)
	if err != nil {
		return err
	}
	if size == 0 {
		return nil
	}
	if h.concurrent && h.Emit.Detached() {
		// A concurrent heap runs detached (no instruction stream), so the
		// emission loop below would only relay one CLWB observation per
		// line — each resolving the pool and taking the domain lock again.
		// Hand the whole range to the write-back model in one call under a
		// single lock acquisition; CLWBRange steps event-for-event like the
		// per-line loop, so armed crash points land at the same indices.
		p := h.open[o.Pool()]
		func() {
			// The unlock must be deferred: an armed crash fires as a panic
			// from inside the range walk, and the domain lock has to be
			// released on that unwind or every surviving worker deadlocks
			// instead of observing the poisoned domain.
			h.nvMu.Lock()
			defer h.nvMu.Unlock()
			h.NV.CLWBRange(uint32(p.b.id), o.Offset(), size, h)
		}()
		return nil
	}
	first := va &^ 63
	last := (va + uint64(size) - 1) &^ 63
	h.Emit.Compute(8) // address rounding, loop setup
	for line := first; ; line += 64 {
		h.Emit.CLWB(line)
		adv := h.Emit.Compute(1) // line += 64
		h.Emit.Branch("persist.loop", line != last, adv)
		if line == last {
			break
		}
	}
	return nil
}

// Root returns the pool's root object, creating it with the given size on
// first use (paper: pool_root). The root anchors all other content.
func (h *Heap) Root(p *Pool, size uint32) (oid.OID, error) {
	hdr := h.DirectRef(p, 0)
	w, err := hdr.Load64(offRootOff)
	if err != nil {
		return oid.Null, err
	}
	if w.V != 0 {
		if got := uint32(h.read64(p, offRootSize)); got < size {
			return oid.Null, fmt.Errorf("pmem: root of pool %q is %d bytes, %d requested", p.b.name, got, size)
		}
		return p.OID(uint32(w.V)), nil
	}
	o, err := h.Alloc(p, size)
	if err != nil {
		return oid.Null, err
	}
	if err := hdr.Store64(offRootOff, uint64(o.Offset()), isa.RZ); err != nil {
		return oid.Null, err
	}
	if err := hdr.Store64(offRootSize, uint64(size), isa.RZ); err != nil {
		return oid.Null, err
	}
	if err := h.Persist(p.OID(offRootOff), 16); err != nil {
		return oid.Null, err
	}
	return o, nil
}
