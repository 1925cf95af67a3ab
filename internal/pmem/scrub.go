package pmem

import (
	"sort"

	"potgo/internal/oid"
)

// Scrubbing is synchronous: ScrubAll walks the heap's fault-tolerant pools
// once, verifying every occupied slot's CRC32C and repairing what parity can
// reconstruct (Heap.ScrubPool). Each pool is scrubbed under its shard's
// write lock — a scrub may repair — and the lock is dropped between pools,
// so foreground operations are delayed by at most one pool's scan.

// ftPoolIDs snapshots the ids of the open fault-tolerant pools in sorted
// order, under a read lock of all shards.
func (s *Sharded) ftPoolIDs() []oid.PoolID {
	s.RLockAll()
	ids := make([]oid.PoolID, 0, s.h.ftPools)
	for id, p := range s.h.open {
		if p.ft() {
			ids = append(ids, id)
		}
	}
	s.RUnlockAll()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// --- stop-the-world fault-tolerance entry points ---

// CreateSizedFT makes a fault-tolerant pool (checksums + parity column)
// with an explicit undo-log capacity.
func (s *Sharded) CreateSizedFT(name string, size, logBytes uint64) (*Pool, error) {
	defer s.lockAll()()
	return s.h.CreateSizedFT(name, size, logBytes)
}

// RebuildFT recomputes a pool's checksum and parity state after
// non-transactional setup (see Heap.RebuildFT).
func (s *Sharded) RebuildFT(p *Pool) error {
	defer s.lockAll()()
	return s.h.RebuildFT(p)
}

// ScrubAll synchronously scrubs every fault-tolerant pool once,
// accumulating the stats. Each pool is scrubbed under its shard's write
// lock.
func (s *Sharded) ScrubAll() (ScrubStats, error) {
	var total ScrubStats
	for _, id := range s.ftPoolIDs() {
		// The unlock is deferred inside the closure so an armed-crash
		// signal unwinding out of ScrubPool (the crash-mid-scrub
		// campaign) releases the shard lock on its way up.
		st, err := func() (ScrubStats, error) {
			s.LockPool(id)
			defer s.UnlockPool(id)
			p, ok := s.h.open[id]
			if !ok || !p.ft() {
				return ScrubStats{}, nil
			}
			return s.h.ScrubPool(p)
		}()
		if err != nil {
			return total, err
		}
		total.Add(st)
	}
	return total, nil
}

// CorruptObjects injects k single-bit media faults (see
// Heap.CorruptObjects), stop-the-world so no transaction or scrub is in
// flight when the bits land.
func (s *Sharded) CorruptObjects(k int, mode CorruptMode, seed uint64) ([]Corruption, error) {
	defer s.lockAll()()
	return s.h.CorruptObjects(k, mode, seed)
}

// SetVerifyOnRead toggles checksum verification on Deref (stop-the-world:
// the flag is read unsynchronized on the hot path).
func (s *Sharded) SetVerifyOnRead(on bool) {
	defer s.lockAll()()
	s.h.SetVerifyOnRead(on)
}

// MutateNoParity disables parity maintenance (the CI mutation check).
func (s *Sharded) MutateNoParity(on bool) {
	defer s.lockAll()()
	s.h.MutateNoParity(on)
}

// RepairObject verifies and repairs one object under its pool's shard
// write lock.
func (s *Sharded) RepairObject(o oid.OID) (bool, error) {
	s.LockPool(o.Pool())
	defer s.UnlockPool(o.Pool())
	return s.h.RepairObject(o)
}
