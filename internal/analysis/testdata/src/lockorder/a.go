// Fixture for the lockorder analyzer: shard locks one set at a time, no
// direct mutex ops on sharded state outside the owner's locking helpers.
// The shard-set sortedness cases live in the shardset subpackage.
package lockorder

import (
	"sync"

	"potgo/internal/oid"
	"potgo/internal/pmem"
)

// table is sharded state: a slice of mutexes behind locking helpers.
type table struct {
	mus []sync.RWMutex
}

// lockSlot is a designated locking helper ("lock" in the name): allowed.
func (t *table) lockSlot(i int) { t.mus[i].Lock() }

// unlockSlot is also a helper.
func (t *table) unlockSlot(i int) { t.mus[i].Unlock() }

// bump is not a locking helper: direct ops on the sharded slice are
// flagged.
func (t *table) bump(i int) {
	t.mus[i].Lock()   // want "direct mutex operation on sharded state of table"
	t.mus[i].Unlock() // want "direct mutex operation on sharded state of table"
}

// okSequential releases before re-acquiring: clean.
func okSequential(s *pmem.Sharded, a, b oid.PoolID) {
	s.LockPool(a)
	s.UnlockPool(a)
	s.LockPool(b)
	s.UnlockPool(b)
}

// doubleShard holds one shard lock while taking another: ABBA risk.
func doubleShard(s *pmem.Sharded, a, b oid.PoolID) {
	s.LockPool(a)
	s.LockPool(b) // want "shard lock acquired while a shard lock is already held"
	s.UnlockPool(b)
	s.UnlockPool(a)
}

// acquireHelper leaves a shard lock held: its summary says so.
func acquireHelper(s *pmem.Sharded, id oid.PoolID) { s.LockPool(id) }

// viaHelper double-acquires through the helper — caught interprocedurally.
func viaHelper(s *pmem.Sharded, a, b oid.PoolID) {
	acquireHelper(s, a)
	acquireHelper(s, b) // want "shard lock acquired while a shard lock is already held"
	s.UnlockPool(b)
	s.UnlockPool(a)
}

// scopedUnderShard opens a scoped view while holding a shard lock: the
// scoped helper re-acquires shard locks internally.
func scopedUnderShard(s *pmem.Sharded, id oid.PoolID, pools []oid.PoolID) error {
	s.LockPool(id)
	defer s.UnlockPool(id)
	return s.View(pools, func() error { return nil }) // want "shard lock acquired while a shard lock is already held"
}

// branchMerge: a lock held on only one branch still counts after the join
// (may-analysis).
func branchMerge(s *pmem.Sharded, a, b oid.PoolID, cond bool) {
	if cond {
		s.LockPool(a)
	}
	s.LockPool(b) // want "shard lock acquired while a shard lock is already held"
	s.UnlockPool(b)
	if cond {
		s.UnlockPool(a)
	}
}
