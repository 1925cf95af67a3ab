package pmem

import (
	"fmt"
	"sort"
	"sync"

	"potgo/internal/emit"
	"potgo/internal/nvmsim"
	"potgo/internal/oid"
	"potgo/internal/pot"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

// Sharded is a persistent heap safe for concurrent clients. It wraps one
// Heap (so multi-pool transactions stay natively crash-atomic: a single
// undo log can reference objects in any involved pool) and shards lock
// ownership by pool id — the paper's pool-id ‖ offset ObjectID split gives
// the shard key for free.
//
// The locking discipline, from the outside in:
//
//   - Shard locks: every operation declares the pools it will touch;
//     View/Update/Tx acquire the corresponding shard locks in ascending
//     shard order (shardSet sorts and deduplicates the set), so two
//     multi-shard transactions can never deadlock. Reads share a shard;
//     writes and transactions are exclusive.
//   - Structural operations (create/open/close/sync/crash/recover) are
//     stop-the-world: all shard locks, exclusive, in order.
//   - Heap-internal state that cannot be sharded — the volatile
//     write-back cache model and its crash-event numbering — sits behind
//     the heap's own nvMu, innermost, never held across a callback.
//
// The heap's emitter is detached: an instruction trace is a
// single-threaded notion, and the concurrent heap keeps only the
// persistence-domain events (which is what the concurrent crash harness
// injects faults into).
type Sharded struct {
	h       *Heap
	nshards int
	shards  []rwShard
}

// rwShard pads each lock to its own cache line so shard locks don't false-
// share under contention.
type rwShard struct {
	mu sync.RWMutex
	_  [40]byte
}

// NewSharded builds a concurrent heap over the given pool store with the
// given number of lock shards. The address space is created here (seeded
// ASLR, concurrent mode) along with an OPT-mode discard-trace heap, a
// concurrent POT, and a persistence domain that poisons itself at a crash
// so racing workers stop.
func NewSharded(store *Store, nshards int, seed int64) (*Sharded, error) {
	if nshards <= 0 {
		return nil, fmt.Errorf("pmem: sharded heap needs at least one shard, got %d", nshards)
	}
	as := vm.NewAddressSpace(seed)
	as.SetConcurrent()
	h, err := NewHeap(as, store, emit.New(trace.Discard{}, emit.Opt), nil)
	if err != nil {
		return nil, err
	}
	pt, err := pot.New(as, pot.DefaultEntries)
	if err != nil {
		return nil, err
	}
	pt.SetConcurrent()
	h.POT = pt
	h.Emit.Detach()
	h.SetConcurrent()
	h.NV.SetPoisonOnCrash(true)
	return &Sharded{
		h:       h,
		nshards: nshards,
		shards:  make([]rwShard, nshards),
	}, nil
}

// Heap exposes the underlying heap. Callers must respect the locking
// discipline: data access only inside View/Update/Tx (or stop-the-world
// helpers), declaring every pool they touch.
func (s *Sharded) Heap() *Heap { return s.h }

// Shards returns the number of lock shards.
func (s *Sharded) Shards() int { return s.nshards }

// ShardOf maps a pool id to its lock shard.
func (s *Sharded) ShardOf(id oid.PoolID) int { return int(uint32(id)) % s.nshards }

// shardSet returns the sorted, deduplicated shard indices for a pool set.
func (s *Sharded) shardSet(pools []oid.PoolID) []int {
	idx := make([]int, 0, len(pools))
	for _, id := range pools {
		idx = append(idx, s.ShardOf(id))
	}
	sort.Ints(idx)
	out := idx[:0]
	for i, v := range idx {
		if i == 0 || v != idx[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func (s *Sharded) lockShards(idx []int) func() {
	for _, i := range idx {
		s.shards[i].mu.Lock()
	}
	return func() {
		for i := len(idx) - 1; i >= 0; i-- {
			s.shards[idx[i]].mu.Unlock()
		}
	}
}

func (s *Sharded) rlockShards(idx []int) func() {
	for _, i := range idx {
		s.shards[i].mu.RLock()
	}
	return func() {
		for i := len(idx) - 1; i >= 0; i-- {
			s.shards[idx[i]].mu.RUnlock()
		}
	}
}

// lockAll write-locks every shard in order — the stop-the-world entry for
// structural operations.
func (s *Sharded) lockAll() func() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	return func() {
		for i := len(s.shards) - 1; i >= 0; i-- {
			s.shards[i].mu.Unlock()
		}
	}
}

// The closure-based View/Update/Tx entries allocate (the pool-id slice, the
// shard set, the closure's captures). The explicit lock helpers below are
// their allocation-free counterparts for hot single-pool request paths
// (internal/objstore); callers own the pairing and the discipline: data
// access only between lock and unlock, ascending shard order for multi-
// shard masks.

// RLockPool read-locks the shard owning pool id.
func (s *Sharded) RLockPool(id oid.PoolID) { s.shards[s.ShardOf(id)].mu.RLock() }

// RUnlockPool undoes RLockPool.
func (s *Sharded) RUnlockPool(id oid.PoolID) { s.shards[s.ShardOf(id)].mu.RUnlock() }

// LockPool write-locks the shard owning pool id.
func (s *Sharded) LockPool(id oid.PoolID) { s.shards[s.ShardOf(id)].mu.Lock() }

// UnlockPool undoes LockPool.
func (s *Sharded) UnlockPool(id oid.PoolID) { s.shards[s.ShardOf(id)].mu.Unlock() }

// RLockAll read-locks every shard in ascending order (consistent multi-
// shard snapshots: scans, invariant sweeps).
func (s *Sharded) RLockAll() {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
}

// RUnlockAll undoes RLockAll.
func (s *Sharded) RUnlockAll() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.RUnlock()
	}
}

// LockShardMask write-locks the shards whose bits are set in mask, in
// ascending order — the deadlock-free multi-shard acquisition for callers
// that can express their shard set as a bitmask (nshards <= 64).
func (s *Sharded) LockShardMask(mask uint64) {
	for i := 0; i < s.nshards; i++ {
		if mask&(1<<uint(i)) != 0 {
			s.shards[i].mu.Lock()
		}
	}
}

// UnlockShardMask undoes LockShardMask.
func (s *Sharded) UnlockShardMask(mask uint64) {
	for i := s.nshards - 1; i >= 0; i-- {
		if mask&(1<<uint(i)) != 0 {
			s.shards[i].mu.Unlock()
		}
	}
}

// View runs fn while holding the read locks of every listed pool's shard.
// fn must only read — loads emit no persistence-domain events, so
// concurrent readers of one shard are safe.
func (s *Sharded) View(pools []oid.PoolID, fn func() error) error {
	defer s.rlockShards(s.shardSet(pools))()
	return fn()
}

// Update runs fn while holding the write locks of every listed pool's
// shard: a multi-pool transaction (KV.Batch past 64 shards) or a
// non-transactional mutation (setup writes, direct pokes).
func (s *Sharded) Update(pools []oid.PoolID, fn func() error) error {
	defer s.lockShards(s.shardSet(pools))()
	return fn()
}

// --- MVCC snapshot reads ---

// EnableMVCC attaches the epoch-versioned snapshot mirror to the heap and
// marks pool p as versioned (stop-the-world: flips commit behaviour).
func (s *Sharded) EnableMVCC(p *Pool) {
	defer s.lockAll()()
	s.h.EnableMVCC(p)
}

// MVCC returns the heap's version mirror (nil when never enabled).
func (s *Sharded) MVCC() *MVCC { return s.h.mvcc }

// Pin claims a snapshot-read registration at the current epoch, or nil
// when MVCC is not enabled or the registry is exhausted — callers fall
// back to the latched read path. Pin takes no shard locks.
//
//potlint:snapshot-read
func (s *Sharded) Pin() *PinSlot {
	if m := s.h.mvcc; m != nil {
		return m.Pin()
	}
	return nil
}

// Unpin releases a Pin registration.
//
//potlint:snapshot-read
func (s *Sharded) Unpin(sl *PinSlot) { s.h.mvcc.Unpin(sl) }

// ReclaimVersions runs one epoch-reclamation sweep, freeing superseded
// versions no pinned reader can still see. Safe to run concurrently with
// readers and committing writers.
func (s *Sharded) ReclaimVersions() int {
	if m := s.h.mvcc; m != nil {
		return m.Reclaim()
	}
	return 0
}

// --- structural operations (stop-the-world) ---

// Create makes a new pool with the default undo-log capacity.
//
//potlint:allow unusedexport kept for BenchmarkMVCCHotKeyZipf, TestMVCCSeedVisible and TestShardedDisjointTxParallel
func (s *Sharded) Create(name string, size uint64) (*Pool, error) {
	defer s.lockAll()()
	return s.h.Create(name, size)
}

// CreateSized is Create with an explicit undo-log capacity.
func (s *Sharded) CreateSized(name string, size, logBytes uint64) (*Pool, error) {
	defer s.lockAll()()
	return s.h.CreateSized(name, size, logBytes)
}

// Open maps a previously created pool.
func (s *Sharded) Open(name string) (*Pool, error) {
	defer s.lockAll()()
	return s.h.Open(name)
}

// Close unmaps a pool.
//
//potlint:allow unusedexport kept for TestScrubberStructuralInterleave
func (s *Sharded) Close(p *Pool) error {
	defer s.lockAll()()
	return s.h.Close(p)
}

// Recover replays a pool's undo log after a crash.
func (s *Sharded) Recover(p *Pool) error {
	defer s.lockAll()()
	return s.h.Recover(p)
}

// SyncAll flushes every pool's cache view to the durable store.
func (s *Sharded) SyncAll() error {
	defer s.lockAll()()
	return s.h.SyncAll()
}

// Crash simulates losing power under the given line-loss policy. Callers
// must have stopped (or be prepared to have poisoned) all workers: the
// domain poison-stops any that race past the crash point, and Crash itself
// runs stop-the-world.
func (s *Sharded) Crash(pol nvmsim.Policy) (nvmsim.Report, error) {
	defer s.lockAll()()
	return s.h.Crash(pol)
}
