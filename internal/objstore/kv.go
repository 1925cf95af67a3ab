package objstore

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"potgo/internal/oid"
	"potgo/internal/pds"
	"potgo/internal/pmem"
)

// KV is the store cmd/potserve fronts: a uint64→uint64 map sharded across
// one B+-tree per heap shard, keys routed by key mod shard count. Each
// shard's tree lives in its own pool, so the pool-id shard map makes
// single-key operations on different shards fully parallel; Batch spans
// shards with one lock-ordered multi-pool transaction.
type KV struct {
	sh     *pmem.Sharded
	shards []kvShard
	// mvcc routes Get/Scan through the epoch-versioned snapshot path:
	// readers pin an epoch and traverse committed post-images without
	// shard locks, falling back to the latched path when the mirror cannot
	// serve a walk. On for every store but fault-tolerant
	// stores, whose reads must stay on the verified latched path.
	mvcc bool
	// journaled arms the crash-verification protocol: Put/Delete/Batch
	// append to a per-shard volatile journal under the shard lock and bump
	// the shard's persistent op counter inside the transaction (see
	// EnableJournal).
	journaled bool
	// fallbacks counts MVCC reads that could not ride the snapshot path
	// (pin registry exhausted, or a mirror miss mid-walk) and fell back to
	// the latched path instead. Atomic; observability only.
	fallbacks uint64
}

type kvShard struct {
	pool *pmem.Pool
	tree *pds.BPlus
	// root is the shard's 16-byte root object: field 0 holds the tree
	// anchor cell, field 8 the persistent op counter of journaled mode.
	root oid.OID
	// rctx is the read-path pds.Ctx (tx nil, so no mutable state): shared
	// freely by concurrent readers under the shard's read lock.
	rctx txCtx
	// wctx is the write-path pds.Ctx, rebound per transaction. Exclusive
	// shard lock holders only; the touched map is reused across
	// transactions so steady-state writes stop allocating.
	wctx txCtx
	// journal is the volatile commit-order op journal of journaled mode,
	// appended under the shard's write lock inside the transaction.
	journal []BatchOp
	// jmark is the journal length when the batch now running on this shard
	// began: an aborted batch truncates back to it.
	jmark int
}

// kvPoolBytes sizes each shard pool. The B+-tree allocates ~72-byte nodes;
// 4 MiB per shard holds tens of thousands of keys, plenty for the bench
// and harness workloads.
const (
	kvPoolBytes = 4 << 20
	kvLogBytes  = 256 * 1024
)

func kvPoolName(prefix string, i int) string { return fmt.Sprintf("%s-%d", prefix, i) }

func kvBind(sh *pmem.Sharded, p *pmem.Pool) (kvShard, error) {
	root, err := sh.Heap().Root(p, 16)
	if err != nil {
		return kvShard{}, err
	}
	anchor := pds.NewCell(sh.Heap(), root.FieldAt(0))
	tree := pds.NewBPlus(anchor)
	// Warm the root cache while the tree is still private: once the shard
	// is shared, concurrent readers under the read lock must not race to
	// fill it.
	if err := tree.Prime(); err != nil {
		return kvShard{}, err
	}
	return kvShard{
		pool: p,
		tree: tree,
		root: root,
		rctx: txCtx{h: sh.Heap(), alloc: p},
		wctx: txCtx{h: sh.Heap(), alloc: p},
	}, nil
}

// enableSnapshots flips every shard pool to MVCC and seeds the version
// mirror with the store's current reachable objects (anchor cell + every
// tree node), so snapshot readers can resolve the whole structure at the
// mount epoch.
//
// Fault-tolerant stores stay latched: the version mirror serves volatile
// post-images, which would bypass VerifyOnRead checksum verification and
// mask media faults that must surface as ErrCorrupt through the verified
// read path.
func (kv *KV) enableSnapshots() error {
	for i := range kv.shards {
		if kv.shards[i].pool.FaultTolerant() {
			return nil
		}
	}
	for i := range kv.shards {
		kv.sh.EnableMVCC(kv.shards[i].pool)
	}
	for i := range kv.shards {
		if err := kv.seedShard(&kv.shards[i]); err != nil {
			// A seed walk can fail on a store mounted over still-corrupt
			// media (OpenKV runs before the post-crash scrub). A partial
			// mirror is safe — snapshot walks that miss fall back to the
			// latched path — and Reprime reseeds after repair.
			break
		}
	}
	kv.mvcc = true
	return nil
}

// seedShard publishes initial versions for one shard's reachable objects.
func (kv *KV) seedShard(s *kvShard) error {
	m := kv.sh.MVCC()
	h := kv.sh.Heap()
	if err := m.Seed(h, s.pool, s.tree.AnchorOID(), 8); err != nil {
		return err
	}
	return s.tree.VisitNodes(&s.rctx, func(o oid.OID) error {
		return m.Seed(h, s.pool, o, pds.BPNodeSize)
	})
}

// CreateKV creates one pool per heap shard (named prefix-0 … prefix-N-1)
// and plants an empty B+-tree in each. Snapshot (MVCC) reads are enabled:
// Get/Scan pin an epoch and traverse latch-free.
func CreateKV(sh *pmem.Sharded, prefix string) (*KV, error) {
	return createKV(sh, prefix, false)
}

// CreateKVFT is CreateKV with media-fault tolerance: every shard pool
// carries per-object checksums and a parity column, and the derived state
// is rebuilt once after the non-transactional root setup so VerifyOnRead
// and scrubbing can be enabled immediately. Subsequent Puts/Deletes
// maintain checksums and parity inside their commit fences. Reads stay on
// the latched, verified path (see enableSnapshots).
func CreateKVFT(sh *pmem.Sharded, prefix string) (*KV, error) {
	return createKV(sh, prefix, true)
}

func createKV(sh *pmem.Sharded, prefix string, ft bool) (*KV, error) {
	create := sh.CreateSized
	if ft {
		create = sh.CreateSizedFT
	}
	kv := &KV{sh: sh, shards: make([]kvShard, sh.Shards())}
	for i := range kv.shards {
		p, err := create(kvPoolName(prefix, i), kvPoolBytes, kvLogBytes)
		if err != nil {
			return nil, err
		}
		s, err := kvBind(sh, p)
		if err != nil {
			return nil, err
		}
		kv.shards[i] = s
		if ft {
			if err := sh.RebuildFT(p); err != nil {
				return nil, err
			}
		}
	}
	if err := kv.enableSnapshots(); err != nil {
		return nil, err
	}
	return kv, nil
}

// OpenKV reattaches to a previously created store: every pool is opened
// first, then every undo log is recovered, so a multi-pool batch
// interrupted by a crash rolls back completely before any tree is read.
func OpenKV(sh *pmem.Sharded, prefix string) (*KV, error) {
	kv := &KV{sh: sh, shards: make([]kvShard, sh.Shards())}
	for i := range kv.shards {
		p, err := sh.Open(kvPoolName(prefix, i))
		if err != nil {
			return nil, err
		}
		kv.shards[i].pool = p
	}
	for i := range kv.shards {
		if err := sh.Recover(kv.shards[i].pool); err != nil {
			return nil, err
		}
	}
	for i := range kv.shards {
		s, err := kvBind(sh, kv.shards[i].pool)
		if err != nil {
			return nil, err
		}
		kv.shards[i] = s
	}
	if err := kv.enableSnapshots(); err != nil {
		return nil, err
	}
	return kv, nil
}

// Sharded exposes the underlying sharded heap.
//
//potlint:allow unusedexport kept for TestKVFTGetRepairsInline, TestKVFTUnrepairableNeverLies and TestKVVersionGaugeExact
func (kv *KV) Sharded() *pmem.Sharded { return kv.sh }

// Reprime drops and refills every shard tree's volatile root cache.
// A store reattached while its media still carried faults (OpenKV runs
// before the post-crash scrub) may have cached a corrupt root pointer;
// after the scrub repairs the bytes, Reprime flushes the poison out of
// the volatile layer.
func (kv *KV) Reprime() error {
	for i := range kv.shards {
		s := &kv.shards[i]
		err := func() error {
			kv.sh.LockPool(s.pool.ID())
			defer kv.sh.UnlockPool(s.pool.ID())
			s.tree.DropCache()
			if err := s.tree.Prime(); err != nil {
				return err
			}
			if kv.mvcc {
				// The mirror may have been seeded from corrupt bytes at
				// mount; reseed from the repaired media. Seed drops the
				// old chains to the garbage collector (never the
				// freelist), so a concurrently pinned reader keeps its
				// buffers and at worst falls back to a latched read.
				return kv.seedShard(s)
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	return nil
}

func (kv *KV) shardOf(key uint64) *kvShard { return &kv.shards[key%uint64(len(kv.shards))] }

// EnableJournal arms the crash-verification protocol: from now on every
// Put/Delete and every op of a Batch is appended to the owning shard's
// volatile journal (under the shard write lock, so journal order is commit
// order) and bumps the shard's persistent op counter inside the same
// transaction. After a simulated crash the invariant
// acked <= counter <= len(journal) holds per shard, and replaying the
// journal's counter-length prefix reproduces the recovered state exactly
// (see internal/crashtest).
func (kv *KV) EnableJournal() { kv.journaled = true }

// Journal returns shard i's volatile op journal (commit order; after a
// crash only the shard's last op or batch may be uncommitted — one entry
// for a Put or Delete, the batch's share of the shard for a Batch).
func (kv *KV) Journal(i int) []BatchOp { return kv.shards[i].journal }

// Counter reads shard i's persistent op counter.
func (kv *KV) Counter(i int) (uint64, error) {
	s := &kv.shards[i]
	return counterValue(kv.sh.Heap(), s.root.FieldAt(8))
}

// ReplayKVJournal folds the first n ops of a shard journal into a model
// map — the oracle a recovered shard is compared against.
func ReplayKVJournal(j []BatchOp, n int) map[uint64]uint64 {
	m := make(map[uint64]uint64, n)
	for _, op := range j[:n] {
		if op.Del {
			delete(m, op.Key)
		} else {
			m[op.Key] = op.Val
		}
	}
	return m
}

// SnapshotFallbacks returns how many MVCC reads fell back to the latched
// path (pin registry exhausted, or a version-mirror miss mid-walk). Zero
// on fault-tolerant stores, which never take the snapshot path at all.
func (kv *KV) SnapshotFallbacks() uint64 { return atomic.LoadUint64(&kv.fallbacks) }

// journalOp records op in the shard journal and bumps the persistent
// counter inside the already-bound transaction. Caller holds the shard
// write lock.
func (kv *KV) journalOp(s *kvShard, op BatchOp) error {
	s.journal = append(s.journal, op)
	return bumpCounter(&s.wctx, s.root.FieldAt(8))
}

// Get returns the value stored under key. Allocation-free: the request
// path of potserve rides on it. On an MVCC store the read pins an epoch
// and walks the version mirror without shard locks; the latched path below
// is the fallback (mirror miss, pin registry exhausted) and the authority
// for checksum repair. With VerifyOnRead
// enabled on a fault-tolerant store, a checksum miss triggers one inline
// repair — drop the read lock, rebuild the object from parity under the
// write lock, retry — before the corruption is surfaced to the caller.
//
//potlint:snapshot-read
func (kv *KV) Get(key uint64) (val uint64, ok bool, err error) {
	s := kv.shardOf(key)
	if kv.mvcc {
		if pin := kv.sh.Pin(); pin != nil {
			v, found, sok := s.tree.FindSnap(pin, key)
			kv.sh.Unpin(pin)
			if sok {
				return v, found, nil
			}
		}
		atomic.AddUint64(&kv.fallbacks, 1)
	}
	kv.sh.RLockPool(s.pool.ID()) //potlint:allow snapshotread latched fallback on mirror miss or pin exhaustion
	val, ok, err = s.tree.FindFast(&s.rctx, key)
	kv.sh.RUnlockPool(s.pool.ID())
	if err != nil && errors.Is(err, pmem.ErrCorrupt) {
		return kv.getRepair(s, key, err) //potlint:allow snapshotread checksum repair rides the latched fallback
	}
	return val, ok, err
}

// getRepair is Get's cold path: repair the corrupt object named by the
// error and retry the lookup once. An unrepairable object (or a second,
// different corruption) surfaces as the final ErrCorrupt — never as
// silently wrong data.
func (kv *KV) getRepair(s *kvShard, key uint64, derefErr error) (uint64, bool, error) {
	var ce *pmem.CorruptError
	if !errors.As(derefErr, &ce) {
		return 0, false, derefErr
	}
	repaired, err := kv.sh.RepairObject(ce.OID)
	if err != nil || !repaired {
		return 0, false, derefErr
	}
	kv.sh.RLockPool(s.pool.ID())
	val, ok, err := s.tree.FindFast(&s.rctx, key)
	kv.sh.RUnlockPool(s.pool.ID())
	return val, ok, err
}

// Put stores val under key, inserting or overwriting. It reports whether
// the key was created (false: an existing value was replaced). The
// overwrite path — the steady state of a bounded-keyspace workload — is
// allocation-free end to end; only inserts (tree growth) allocate.
func (kv *KV) Put(key, val uint64) (created bool, err error) {
	s := kv.shardOf(key)
	kv.sh.LockPool(s.pool.ID())
	defer kv.sh.UnlockPool(s.pool.ID())
	jlen := len(s.journal)
	t, err := kv.sh.Heap().Begin(s.pool)
	if err != nil {
		return false, err
	}
	s.wctx.bind(t)
	updated, err := s.tree.UpdateFast(&s.wctx, key, val)
	if err == nil && !updated {
		created = true
		err = s.tree.Insert(&s.wctx, key, val)
	}
	if err == nil && kv.journaled {
		err = kv.journalOp(s, BatchOp{Key: key, Val: val})
	}
	if err != nil {
		// An aborted op must not leave a dead journal entry behind: later
		// committed ops would land after it and misalign every replay
		// prefix. (A crashed commit is different — its entries stay as the
		// uncommitted journal tail, the shard's last op or batch.)
		if kv.journaled && len(s.journal) > jlen {
			s.journal = s.journal[:jlen]
		}
		if aerr := t.Abort(); aerr != nil {
			return false, fmt.Errorf("%w (abort also failed: %v)", err, aerr)
		}
		return false, err
	}
	return created, t.Commit()
}

// Delete removes key, reporting whether it was present.
func (kv *KV) Delete(key uint64) (existed bool, err error) {
	s := kv.shardOf(key)
	kv.sh.LockPool(s.pool.ID())
	defer kv.sh.UnlockPool(s.pool.ID())
	jlen := len(s.journal)
	t, err := kv.sh.Heap().Begin(s.pool)
	if err != nil {
		return false, err
	}
	s.wctx.bind(t)
	existed, err = s.tree.Remove(&s.wctx, key)
	if err == nil && kv.journaled {
		err = kv.journalOp(s, BatchOp{Key: key, Del: true})
	}
	if err != nil {
		if kv.journaled && len(s.journal) > jlen {
			s.journal = s.journal[:jlen]
		}
		if aerr := t.Abort(); aerr != nil {
			return false, fmt.Errorf("%w (abort also failed: %v)", err, aerr)
		}
		return false, err
	}
	return existed, t.Commit()
}

// Scan returns up to max key/value pairs with key >= from, in ascending
// key order, merged across all shards under a store-wide read lock (the
// one KV operation that is a consistent multi-shard snapshot).
func (kv *KV) Scan(from uint64, max int) ([]pds.KV, error) {
	out, err := kv.ScanAppend(nil, from, max)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanAppend is Scan appending into dst (truncated and reused), so a
// caller that recycles its result buffer scans without allocating once the
// buffer has reached its steady-state capacity. On an MVCC store one
// pinned epoch covers every shard — the global epoch makes the cross-shard
// snapshot consistent without RLockAll; the latched store-wide read lock
// is the fallback.
//
//potlint:snapshot-read
func (kv *KV) ScanAppend(dst []pds.KV, from uint64, max int) ([]pds.KV, error) {
	dst = dst[:0]
	if max <= 0 {
		return dst, nil
	}
	if kv.mvcc {
		if pin := kv.sh.Pin(); pin != nil {
			sok := true
			for i := range kv.shards {
				if dst, sok = kv.shards[i].tree.ScanAppendSnap(pin, dst, from, max); !sok {
					break
				}
			}
			kv.sh.Unpin(pin)
			if sok {
				return kvMergeScan(dst, max), nil
			}
			dst = dst[:0]
		}
		atomic.AddUint64(&kv.fallbacks, 1)
	}
	kv.sh.RLockAll() //potlint:allow snapshotread latched fallback on mirror miss or pin exhaustion
	defer kv.sh.RUnlockAll()
	for i := range kv.shards {
		s := &kv.shards[i]
		var err error
		if dst, err = s.tree.ScanAppend(&s.rctx, dst, from, max); err != nil {
			return dst, err
		}
	}
	return kvMergeScan(dst, max), nil
}

// kvMergeScan merges the per-shard ascending runs: each shard contributed
// up to max ascending pairs; sort (slices.SortFunc: no interface boxing,
// non-capturing comparator) and truncate.
func kvMergeScan(dst []pds.KV, max int) []pds.KV {
	slices.SortFunc(dst, func(a, b pds.KV) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
		return 0
	})
	if len(dst) > max {
		dst = dst[:max]
	}
	return dst
}

// BatchOp is one operation of an atomic batch: a put (Del false) or a
// delete (Del true).
type BatchOp struct {
	Key uint64
	Val uint64
	Del bool
}

// Batch applies all ops in one crash-atomic transaction spanning every
// involved shard: either every op is durable or none is. The undo log
// lives in the lowest involved shard's pool; shard locks are taken in
// ascending order as always. With at most 64 KV shards the involved set is
// a stack bitmask and the whole batch (pure overwrites/deletes of leaf-
// resident keys) allocates nothing.
func (kv *KV) Batch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	if len(kv.shards) > 64 {
		return kv.batchSlow(ops)
	}
	var involved uint64 // KV shard indices
	for _, op := range ops {
		involved |= 1 << (op.Key % uint64(len(kv.shards)))
	}
	var heapMask uint64 // heap lock-shard indices
	var logShard *kvShard
	for i := range kv.shards {
		if involved&(1<<uint(i)) == 0 {
			continue
		}
		s := &kv.shards[i]
		if logShard == nil {
			logShard = s
		}
		heapMask |= 1 << uint(kv.sh.ShardOf(s.pool.ID()))
	}
	kv.sh.LockShardMask(heapMask)
	defer kv.sh.UnlockShardMask(heapMask)
	t, err := kv.sh.Heap().Begin(logShard.pool)
	if err != nil {
		return err
	}
	for i := range kv.shards {
		if involved&(1<<uint(i)) != 0 {
			kv.shards[i].bindBatch(t)
		}
	}
	err = kv.applyBatch(ops)
	if err != nil {
		if aerr := t.Abort(); aerr != nil {
			return fmt.Errorf("%w (abort also failed: %v)", err, aerr)
		}
		return err
	}
	return t.Commit()
}

// bindBatch binds the shard's write ctx to a batch transaction and marks
// where the batch's journal entries will start.
func (s *kvShard) bindBatch(t *pmem.Tx) {
	s.wctx.bind(t)
	s.jmark = len(s.journal)
}

// applyBatch runs the ops through the already-bound per-shard write ctxs,
// journaling each one in journaled mode. On error the caller aborts the
// transaction; the journal entries the batch appended are dropped here, for
// the reason Put drops its own.
func (kv *KV) applyBatch(ops []BatchOp) error {
	for _, op := range ops {
		if err := kv.applyBatchOp(op); err != nil {
			if kv.journaled {
				for _, op := range ops {
					s := kv.shardOf(op.Key)
					s.journal = s.journal[:s.jmark]
				}
			}
			return err
		}
	}
	return nil
}

func (kv *KV) applyBatchOp(op BatchOp) error {
	s := kv.shardOf(op.Key)
	if op.Del {
		if _, err := s.tree.Remove(&s.wctx, op.Key); err != nil {
			return err
		}
	} else {
		updated, err := s.tree.UpdateFast(&s.wctx, op.Key, op.Val)
		if err != nil {
			return err
		}
		if !updated {
			if err := s.tree.Insert(&s.wctx, op.Key, op.Val); err != nil {
				return err
			}
		}
	}
	if kv.journaled {
		return kv.journalOp(s, op)
	}
	return nil
}

// batchSlow is Batch for stores sharded past the 64-bit mask, using the
// closure-based multi-pool transaction entry.
func (kv *KV) batchSlow(ops []BatchOp) error {
	involved := make(map[*kvShard]bool, len(ops))
	for _, op := range ops {
		involved[kv.shardOf(op.Key)] = true
	}
	var logShard *kvShard
	var extra []oid.PoolID
	for i := range kv.shards {
		s := &kv.shards[i]
		if !involved[s] {
			continue
		}
		if logShard == nil {
			logShard = s
		} else {
			extra = append(extra, s.pool.ID())
		}
	}
	return kv.sh.Tx(logShard.pool, extra, func(t *pmem.Tx) error {
		for s := range involved {
			s.bindBatch(t)
		}
		return kv.applyBatch(ops)
	})
}

// Check runs every shard tree's invariant sweep and returns the total key
// count (stop-the-world via a full read lock).
func (kv *KV) Check() (int, error) {
	ids := make([]oid.PoolID, len(kv.shards))
	for i := range kv.shards {
		ids[i] = kv.shards[i].pool.ID()
	}
	total := 0
	err := kv.sh.View(ids, func() error {
		for i := range kv.shards {
			s := &kv.shards[i]
			ctx := &txCtx{h: kv.sh.Heap(), alloc: s.pool}
			n, err := s.tree.CheckInvariants(ctx)
			if err != nil {
				return err
			}
			total += n
		}
		return nil
	})
	return total, err
}
