package pmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"potgo/internal/oid"
)

// MVCC snapshot reads: an epoch-versioned volatile mirror of committed
// object images, so readers traverse persistent structures without taking
// shard locks while writers commit concurrently.
//
// The mirror never aliases live pool bytes. Every committed transaction
// publishes an immutable post-image copy of each object it touched
// (publication happens inside Tx.Commit, after the commit point, while the
// committer still holds its shard write locks), headed on a per-object
// version chain. Readers pin the global epoch in a fixed registry slot and
// resolve every object against that epoch; superseded versions are freed
// only once no reader pins an epoch that can still see them.
//
// Version index. ObjectID → chain head is a hash table whose size follows
// its entry count, so a look-up examines one or two entries whether the
// mirror holds a thousand objects or a million. The top bits of
// splitmix64(OID) pick one of mvStripes lock stripes — a fixed, small set,
// locks only — and the low bits pick a slot in that stripe's own
// power-of-two table. A stripe whose entries outnumber its slots first
// sweeps itself for objects that are wholly dead below the reclamation
// horizon (freed objects nobody will look up again) and doubles its table
// only if that did not bring the load back under 3/4; either way the work
// happens under that one stripe's lock, so there is no global stop. Tables
// start empty and never shrink short of Reset.
//
// Epoch protocol. The global epoch G starts at 1. A commit (serialized by
// publishMu) works at D = G+1: it demotes each touched object's current
// head (death = D), pushes the new post-image (borne = D, death = ∞), and
// only then advances G to D. A version is visible to a reader pinned at E
// iff borne <= E < death. Chains are newest-first with strictly decreasing
// deaths, so the version visible at E is the LAST chain entry whose death
// exceeds E. Because G advances after all of a commit's publications, a
// reader pinned at E <= G_old can never observe half of a multi-object
// commit: every object it resolves still shows the pre-commit version.
//
// Pinning. Pin claims a free registry slot (CAS from 0) with the epoch it
// loaded, then revalidates: while G has moved past the stored epoch, the
// slot is restored to the fresh G and re-checked. Reclamation loads G
// FIRST and scans the slots second; under Go's sequentially consistent
// atomics this closes the pin/reclaim race — if the reclaimer's slot scan
// missed a just-claimed pin, the claim follows the scan in the total order,
// so the reader's revalidation load of G returns at least the value the
// reclaimer used, and the reader ends up pinned at an epoch no lower than
// the reclamation horizon.
//
// Reclamation horizon. minEpoch = min(G at load, every pinned epoch). A
// version with death <= minEpoch is invisible to every current pin (each
// pinned E >= minEpoch >= death fails E < death) and to every future pin
// (future E >= G >= minEpoch), so freeing it is safe. A commit computes the
// horizon again after advancing G to its own epoch D; when it is D, the
// versions the commit demoted (death = D) are freed on the spot, so a cold
// object keeps no dead copy until its next write. Versions and entries
// recycle through freelists, keeping the steady-state overwrite path
// allocation-free.
//
// Crash interaction. The mirror is volatile: Heap.Crash and CrashClean
// reset it, and the store is reseeded from the recovered durable bytes at
// the next mount. Reclamation itself emits no persistence-domain events —
// armed crash events fire from concurrent writers, which is exactly the
// window the crashtest MVCC campaign probes.

const (
	// DefaultPinSlots sizes the reader pin registry. Pin returns nil when
	// every slot is claimed; callers fall back to the latched read path.
	DefaultPinSlots = 64
	// mvStripeBits fixes the version index's number of lock stripes,
	// mvStripes. That number bounds lock contention, not look-up length:
	// each stripe's table grows with the entries that hash to it.
	mvStripeBits = 6
	mvStripes    = 1 << mvStripeBits
	// mvMinSlots is the size of a stripe's table at its first insert.
	mvMinSlots = 4
	// mvDeathInf marks a version that is still current.
	mvDeathInf = ^uint64(0)
)

// mvVersion is one immutable committed post-image of an object. buf is
// written once, inside the publishing commit (plus the same-commit
// duplicate-record overwrite, which happens before the version is visible
// to any reader), and never mutated afterwards.
type mvVersion struct {
	borne uint64 // epoch at which this version became current
	death uint64 // epoch at which it was superseded (mvDeathInf = current)
	buf   []byte
	next  *mvVersion // older
}

// mvEntry heads one object's version chain; next links the entries that
// share a table slot.
type mvEntry struct {
	oid  oid.OID
	head *mvVersion // newest first, deaths strictly decreasing
	next *mvEntry
}

// chainLen counts the entry's versions.
func (en *mvEntry) chainLen() int {
	n := 0
	for v := en.head; v != nil; v = v.next {
		n++
	}
	return n
}

// mvStripe is one lock of the version index plus the table it guards.
type mvStripe struct {
	mu      sync.Mutex
	table   []*mvEntry // power-of-two slots, nil until the first insert
	entries int
	_       [24]byte // pad to a cache line: neighbouring stripes lock independently
}

// PinSlot is one reader registration: a padded epoch word (0 = free) plus
// a back-pointer so the slot itself satisfies the snapshot-view interface
// of internal/pds without boxing.
type PinSlot struct {
	epoch uint64
	m     *MVCC
	_     [48]byte // pad to a cache line: slots are scanned and CASed hot
}

// Epoch returns the epoch this slot is pinned at.
//
//potlint:allow unusedexport kept for TestMVCCPinSeesCommitAtPinEpoch
func (s *PinSlot) Epoch() uint64 { return atomic.LoadUint64(&s.epoch) }

// SnapDeref resolves an object against the slot's pinned epoch, returning
// the committed post-image visible at that epoch. ok=false means the
// mirror cannot serve the object (never seeded, or not visible at the
// epoch); the caller falls back to a latched read.
//
//potlint:snapshot-read
func (s *PinSlot) SnapDeref(o oid.OID) ([]byte, bool) {
	return s.m.snapAt(atomic.LoadUint64(&s.epoch), o)
}

// MVCC is the epoch-versioned mirror attached to a heap (EnableMVCC).
type MVCC struct {
	g         uint64 // global epoch, atomic
	hint      uint64 // rotating slot-claim start, atomic
	stale     uint64 // nonzero: mutation mode, readers pin this frozen epoch
	publishMu sync.Mutex
	slots     []PinSlot
	stripes   [mvStripes]mvStripe

	// freelists recycle version nodes (with their bufs) and entries so the
	// steady-state overwrite publish path allocates nothing.
	freeMu sync.Mutex
	freeV  *mvVersion
	freeE  *mvEntry

	// publishes - reclaimed is exactly the number of versions reachable
	// from the index: every version that enters a chain (commit or Seed)
	// counts as a publish, every one that leaves (prune, same-commit
	// drop, re-seed, Reset) as reclaimed.
	publishes uint64 // atomic
	reclaimed uint64 // atomic
}

// NewMVCC builds a mirror with the given pin-registry size.
func NewMVCC(pinSlots int) *MVCC {
	if pinSlots <= 0 {
		pinSlots = DefaultPinSlots
	}
	m := &MVCC{slots: make([]PinSlot, pinSlots)}
	for i := range m.slots {
		m.slots[i].m = m
	}
	atomic.StoreUint64(&m.g, 1)
	return m
}

// Epoch returns the current global epoch.
func (m *MVCC) Epoch() uint64 { return atomic.LoadUint64(&m.g) }

// Stats returns (versions published, versions reclaimed); their difference
// is the number of versions the mirror holds. reclaimed is loaded first: a
// version is counted in before it is counted out, so a reading taken
// while commits run can lag, never underflow.
func (m *MVCC) Stats() (publishes, reclaimed uint64) {
	reclaimed = atomic.LoadUint64(&m.reclaimed)
	return atomic.LoadUint64(&m.publishes), reclaimed
}

// hashOID is the splitmix64 finalizer: cheap and well distributed over both
// the pool and offset halves of the OID.
func hashOID(o oid.OID) uint64 {
	x := uint64(o)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// stripe returns o's lock stripe and hash: the hash's top bits choose the
// stripe, its low bits the slot, so the two choices stay independent
// however far a table grows.
func (m *MVCC) stripe(o oid.OID) (*mvStripe, uint64) {
	h := hashOID(o)
	return &m.stripes[h>>(64-mvStripeBits)], h
}

// find is the index's one look-up: o's entry, or nil. Caller holds st.mu.
func (st *mvStripe) find(h uint64, o oid.OID) *mvEntry {
	if len(st.table) == 0 {
		return nil
	}
	for en := st.table[h&uint64(len(st.table)-1)]; en != nil; en = en.next {
		if en.oid == o {
			return en
		}
	}
	return nil
}

// forEachStripe runs fn on every stripe in turn, holding that stripe's lock
// (and no other) for the call.
func (m *MVCC) forEachStripe(fn func(st *mvStripe)) {
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		fn(st)
		st.mu.Unlock()
	}
}

// Pin claims a registry slot at the current epoch. Returns nil when the
// registry is exhausted — the caller must fall back to a latched read.
// Allocation-free.
//
//potlint:snapshot-read
func (m *MVCC) Pin() *PinSlot {
	staleAt := atomic.LoadUint64(&m.stale)
	n := uint64(len(m.slots))
	start := atomic.AddUint64(&m.hint, 1)
	for i := uint64(0); i < n; i++ {
		s := &m.slots[(start+i)%n]
		if staleAt != 0 {
			// Mutation mode: pin the frozen epoch with no revalidation —
			// the deliberately stale snapshot the SI checker must catch.
			if atomic.CompareAndSwapUint64(&s.epoch, 0, staleAt) {
				return s
			}
			continue
		}
		e := atomic.LoadUint64(&m.g)
		if atomic.CompareAndSwapUint64(&s.epoch, 0, e) {
			// Revalidate until the published epoch matches the global:
			// see the pin/reclaim ordering argument in the package
			// comment above.
			for {
				g := atomic.LoadUint64(&m.g)
				if g == e {
					return s
				}
				atomic.StoreUint64(&s.epoch, g)
				e = g
			}
		}
	}
	return nil
}

// Unpin releases a pinned slot.
//
//potlint:snapshot-read
func (m *MVCC) Unpin(s *PinSlot) { atomic.StoreUint64(&s.epoch, 0) }

// snapAt resolves o at epoch e: the last chain version whose death exceeds
// e, provided it was already borne. The returned buf is immutable while
// any pin that can see it is held (reclamation's horizon proof covers the
// freelist recycle, whether a Reclaim sweep or a growing stripe's own sweep
// frees it), so handing it out past the stripe lock is safe.
//
//potlint:snapshot-read
func (m *MVCC) snapAt(e uint64, o oid.OID) ([]byte, bool) {
	st, h := m.stripe(o)
	st.mu.Lock()
	var vis *mvVersion
	if en := st.find(h, o); en != nil {
		for v := en.head; v != nil && v.death > e; v = v.next {
			vis = v // deaths strictly decrease down the chain
		}
	}
	if vis == nil || vis.borne > e {
		st.mu.Unlock()
		return nil, false
	}
	buf := vis.buf
	st.mu.Unlock()
	return buf, true
}

// minEpoch computes the reclamation horizon. The global epoch MUST be
// loaded before the slot scan — the reverse order can compute a horizon
// above a just-claimed pin's epoch and free versions that pin still needs.
func (m *MVCC) minEpoch() uint64 {
	min := atomic.LoadUint64(&m.g)
	for i := range m.slots {
		if e := atomic.LoadUint64(&m.slots[i].epoch); e != 0 && e < min {
			min = e
		}
	}
	return min
}

// --- freelists ---

func (m *MVCC) newVersion(size int) *mvVersion {
	m.freeMu.Lock()
	v := m.freeV
	if v != nil {
		m.freeV = v.next
	}
	m.freeMu.Unlock()
	if v == nil {
		v = &mvVersion{}
	}
	v.next = nil
	if cap(v.buf) < size {
		v.buf = make([]byte, size)
	}
	v.buf = v.buf[:size]
	return v
}

func (m *MVCC) freeVersion(v *mvVersion) {
	m.freeMu.Lock()
	v.next = m.freeV
	m.freeV = v
	m.freeMu.Unlock()
}

func (m *MVCC) newEntry(o oid.OID) *mvEntry {
	m.freeMu.Lock()
	en := m.freeE
	if en != nil {
		m.freeE = en.next
	}
	m.freeMu.Unlock()
	if en == nil {
		en = &mvEntry{}
	}
	en.oid, en.head, en.next = o, nil, nil
	return en
}

func (m *MVCC) freeEntry(en *mvEntry) {
	en.head = nil
	m.freeMu.Lock()
	en.next = m.freeE
	m.freeE = en
	m.freeMu.Unlock()
}

// --- publication (called from Tx.Commit under publishMu) ---

// entryLocked returns o's entry, linking a fresh one when the index has
// none. A caller that adds an entry finishes with growIfFullLocked once the
// entry holds its version. Caller holds st.mu.
func (m *MVCC) entryLocked(st *mvStripe, h uint64, o oid.OID) *mvEntry {
	if en := st.find(h, o); en != nil {
		return en
	}
	if st.table == nil {
		st.table = make([]*mvEntry, mvMinSlots)
	}
	en := m.newEntry(o)
	slot := &st.table[h&uint64(len(st.table)-1)]
	en.next = *slot
	*slot = en
	st.entries++
	return en
}

// growIfFullLocked keeps the stripe's load factor at or below 1. A full
// stripe first sweeps out the objects that are wholly dead below the
// reclamation horizon — nothing else on the commit path ever unlinks a
// freed object's entry — and doubles only when the live entries still fill
// more than 3/4 of the table, so the table follows the live set rather
// than every object ever seen, and at least a quarter of the table's worth
// of inserts separates two sweeps. Caller holds st.mu; every entry it
// added must already head a version (an empty entry is swept).
func (m *MVCC) growIfFullLocked(st *mvStripe) {
	if st.entries <= len(st.table) {
		return
	}
	m.sweepLocked(st, m.minEpoch())
	if 4*st.entries <= 3*len(st.table) {
		return
	}
	old := st.table
	st.table = make([]*mvEntry, 2*len(old))
	mask := uint64(len(st.table) - 1)
	for _, en := range old {
		for en != nil {
			nx := en.next
			slot := &st.table[hashOID(en.oid)&mask]
			en.next = *slot
			*slot = en
			en = nx
		}
	}
}

// sweepLocked prunes every chain of the stripe below limit and unlinks the
// entries left without a version. Returns the number of versions freed.
// Caller holds st.mu.
func (m *MVCC) sweepLocked(st *mvStripe, limit uint64) int {
	freed := 0
	for i := range st.table {
		link := &st.table[i]
		for en := *link; en != nil; en = *link {
			freed += m.pruneLocked(en, limit)
			if en.head == nil {
				*link = en.next
				m.freeEntry(en)
				st.entries--
			} else {
				link = &en.next
			}
		}
	}
	return freed
}

// publishRecord installs the committed post-image of [o, o+size) at epoch
// d, pruning chain suffixes invisible below limit. A head already borne at
// d is a same-commit duplicate (recAlloc + recData of one fresh object):
// its buf is overwritten in place, which no reader can observe because the
// commit's epoch advance has not happened yet.
func (m *MVCC) publishRecord(h *Heap, p *Pool, o oid.OID, size uint32, d, limit uint64) error {
	st, hash := m.stripe(o)
	st.mu.Lock()
	en := m.entryLocked(st, hash, o)
	var v *mvVersion
	if en.head != nil && en.head.borne == d {
		v = en.head
		if cap(v.buf) < int(size) {
			v.buf = make([]byte, size)
		}
		v.buf = v.buf[:size]
	} else {
		v = m.newVersion(int(size))
		v.borne, v.death = d, mvDeathInf
		if en.head != nil && en.head.death == mvDeathInf {
			en.head.death = d
		}
		v.next = en.head
		en.head = v
		atomic.AddUint64(&m.publishes, 1)
	}
	err := h.AS.ReadAt(p.region.Base+uint64(o.Offset()), v.buf)
	m.pruneLocked(en, limit)
	m.growIfFullLocked(st)
	st.mu.Unlock()
	if err != nil {
		return fmt.Errorf("pmem: mvcc publish %v: %w", o, err)
	}
	return nil
}

// demoteRecord marks o's current version dead at epoch d with no successor
// (the object was freed). A head borne at d was allocated and freed inside
// the same commit: it is dropped entirely.
func (m *MVCC) demoteRecord(o oid.OID, d, limit uint64) {
	st, h := m.stripe(o)
	st.mu.Lock()
	if en := st.find(h, o); en != nil {
		if en.head != nil && en.head.death == mvDeathInf {
			if en.head.borne == d {
				dead := en.head
				en.head = dead.next
				m.freeVersion(dead)
				atomic.AddUint64(&m.reclaimed, 1)
			} else {
				en.head.death = d
			}
		}
		m.pruneLocked(en, limit)
	}
	st.mu.Unlock()
}

// pruneLocked frees the chain suffix whose deaths are at or below limit
// (invisible to every current and future pin). Caller holds the stripe
// lock. Suppressed in stale-mutation mode so the seeded stale snapshot
// keeps its versions alive.
func (m *MVCC) pruneLocked(en *mvEntry, limit uint64) int {
	if atomic.LoadUint64(&m.stale) != 0 {
		return 0
	}
	n := 0
	var prev *mvVersion
	for v := en.head; v != nil; v = v.next {
		if v.death <= limit {
			if prev == nil {
				en.head = nil
			} else {
				prev.next = nil
			}
			for v != nil {
				nx := v.next
				m.freeVersion(v)
				v = nx
				n++
			}
			break
		}
		prev = v
	}
	if n > 0 {
		atomic.AddUint64(&m.reclaimed, uint64(n))
	}
	return n
}

// pruneObject frees o's chain suffix whose deaths are at or below limit.
func (m *MVCC) pruneObject(o oid.OID, limit uint64) {
	st, h := m.stripe(o)
	st.mu.Lock()
	if en := st.find(h, o); en != nil {
		m.pruneLocked(en, limit)
	}
	st.mu.Unlock()
}

// Reclaim sweeps every version chain, freeing versions no pinned or future
// reader can see, and unlinking entries whose objects are fully dead. It
// runs concurrently with readers and publishing commits (one stripe lock
// at a time; it does not take publishMu). Returns the number of versions
// freed.
func (m *MVCC) Reclaim() int {
	if atomic.LoadUint64(&m.stale) != 0 {
		return 0
	}
	limit := m.minEpoch()
	freed := 0
	m.forEachStripe(func(st *mvStripe) { freed += m.sweepLocked(st, limit) })
	return freed
}

// ChainLen returns the length of one object's version chain (0 when the
// mirror holds no entry for it). Introspection for tests and benchmarks
// that bound memory pressure under hot-key skew.
//
//potlint:allow unusedexport kept for TestMVCCIndexResetShrinks and TestMVCCHotKeyChainBounded
func (m *MVCC) ChainLen(o oid.OID) int {
	st, h := m.stripe(o)
	st.mu.Lock()
	defer st.mu.Unlock()
	if en := st.find(h, o); en != nil {
		return en.chainLen()
	}
	return 0
}

// MVCCIndexStats is a stripe-by-stripe walk of the version index: exact for
// a quiescent mirror, a consistent reading per stripe otherwise.
type MVCCIndexStats struct {
	Entries  int // objects the index holds an entry for
	Slots    int // table slots, summed over the stripes
	MaxProbe int // most entries any one look-up examines (longest slot list)
	Versions int // versions reachable from the entries
	MaxChain int // longest version chain of any one object
}

// add folds one stripe into the walk. Caller holds st.mu.
func (s *MVCCIndexStats) add(st *mvStripe) {
	s.Entries += st.entries
	s.Slots += len(st.table)
	for _, en := range st.table {
		probe := 0
		for ; en != nil; en = en.next {
			probe++
			n := en.chainLen()
			s.Versions += n
			if n > s.MaxChain {
				s.MaxChain = n
			}
		}
		if probe > s.MaxProbe {
			s.MaxProbe = probe
		}
	}
}

// IndexStats walks the whole index.
func (m *MVCC) IndexStats() MVCCIndexStats {
	var s MVCCIndexStats
	m.forEachStripe(s.add)
	return s
}

// Seed publishes the current live bytes of [o, o+size) as the object's
// initial version (borne 0: visible at every epoch). Called at mount while
// the store is still private; the mirror must be empty for o.
func (m *MVCC) Seed(h *Heap, p *Pool, o oid.OID, size uint32) error {
	st, hash := m.stripe(o)
	st.mu.Lock()
	en := m.entryLocked(st, hash, o)
	v := m.newVersion(int(size))
	v.borne, v.death = 0, mvDeathInf
	if en.head != nil && en.head.death == mvDeathInf {
		// Re-seeding an object that already has a live version (Reprime
		// after repair): replace the chain outright, leaving the old one
		// to the garbage collector rather than the freelist, so a reader
		// that resolved a buffer before the reseed keeps it intact.
		atomic.AddUint64(&m.reclaimed, uint64(en.chainLen()))
		en.head = nil
	}
	v.next = en.head
	en.head = v
	atomic.AddUint64(&m.publishes, 1)
	err := h.AS.ReadAt(p.region.Base+uint64(o.Offset()), v.buf)
	m.growIfFullLocked(st)
	st.mu.Unlock()
	if err != nil {
		return fmt.Errorf("pmem: mvcc seed %v: %w", o, err)
	}
	return nil
}

// Reset discards the whole mirror: a crash took the volatile state with
// it. The store is reseeded from the recovered durable bytes at remount.
// The index returns to its empty footprint, and the versions it held count
// as reclaimed.
func (m *MVCC) Reset() {
	m.publishMu.Lock()
	var dropped MVCCIndexStats
	m.forEachStripe(func(st *mvStripe) {
		dropped.add(st)
		st.table, st.entries = nil, 0
	})
	atomic.AddUint64(&m.reclaimed, uint64(dropped.Versions))
	for i := range m.slots {
		atomic.StoreUint64(&m.slots[i].epoch, 0)
	}
	atomic.StoreUint64(&m.g, 1)
	atomic.StoreUint64(&m.stale, 0)
	m.freeMu.Lock()
	m.freeV, m.freeE = nil, nil
	m.freeMu.Unlock()
	m.publishMu.Unlock()
}

// MutateStaleReads is the deliberately-injected snapshot bug for the
// mutation-discipline check: it freezes every subsequent Pin at the
// current epoch and suppresses reclamation, so readers keep observing a
// stale committed prefix while writers advance. The SI checker must
// report the resulting stale-then-fresh inversions; a harness that stays
// green under this mutation proves nothing.
func (m *MVCC) MutateStaleReads() {
	atomic.StoreUint64(&m.stale, atomic.LoadUint64(&m.g))
}

// ClearStaleMutation restores honest pinning.
//
//potlint:allow unusedexport mutation hook TestMVCCStaleMutation and TestKVStaleReadMutationDetected lift
func (m *MVCC) ClearStaleMutation() { atomic.StoreUint64(&m.stale, 0) }

// --- heap integration ---

// EnableMVCC attaches the epoch-versioned mirror to the heap (first call)
// and marks pool p as versioned: commits touching p publish post-images,
// and snapshot reads of p's objects resolve against the mirror.
func (h *Heap) EnableMVCC(p *Pool) {
	if h.mvcc == nil {
		h.mvcc = NewMVCC(DefaultPinSlots)
	}
	p.mvcc = true
}

// mvccPublish publishes a committed transaction's post-images. Called from
// Tx.Commit after the commit point (the durable state already reflects the
// transaction) and before the Tx is recycled; the committer still holds
// its shard write locks, so the live bytes it copies are stable. The
// epoch advance at the end is the transaction's visibility point for
// snapshot readers — all of its objects appear atomically.
//
//potlint:noalloc
func (h *Heap) mvccPublish(st *txState) error {
	m := h.mvcc
	any := false
	for i := range st.records {
		if p, ok := h.open[st.records[i].oid.Pool()]; ok && p.mvcc {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	m.publishMu.Lock()
	d := atomic.LoadUint64(&m.g) + 1
	limit := m.minEpoch()
	var err error
	for i := range st.records {
		r := &st.records[i]
		p, ok := h.open[r.oid.Pool()]
		if !ok || !p.mvcc {
			continue
		}
		switch r.kind {
		case recData, recAlloc:
			if r.size == 0 {
				continue
			}
			if perr := m.publishRecord(h, p, r.oid, r.size, d, limit); perr != nil && err == nil {
				err = perr
			}
		case recFree:
			m.demoteRecord(r.oid, d, limit)
		}
	}
	atomic.StoreUint64(&m.g, d)
	// Commit-time free: with G at d, a horizon of d means no pin can see a
	// version that died at d (the same load-G-first argument Reclaim
	// relies on), so the versions this commit demoted go back to the
	// freelist now rather than at each object's next write. While a pin is
	// below d they stay for it, and the publish-time prune and Reclaim
	// free them later.
	if m.minEpoch() >= d {
		for i := range st.records {
			r := &st.records[i]
			if p, ok := h.open[r.oid.Pool()]; ok && p.mvcc {
				m.pruneObject(r.oid, d)
			}
		}
	}
	m.publishMu.Unlock()
	return err
}
