// Fixture for the snapshotread analyzer: //potlint:snapshot-read-annotated
// functions stay latch-free and read-only; annotated callees are trusted;
// plain struct-field mutexes are internal and allowed; the latched fallback
// is suppressed line-by-line with //potlint:allow.
package snapshotread

import (
	"sync"
	"sync/atomic"

	"potgo/internal/oid"
	"potgo/internal/pmem"
)

// goodRead is the honest protocol: pin, read, unpin. Clean.
//
//potlint:snapshot-read
func goodRead(sh *pmem.Sharded, word *uint64) uint64 {
	pin := sh.Pin()
	if pin == nil {
		return 0
	}
	v := atomic.LoadUint64(word)
	sh.Unpin(pin)
	return v
}

// lockedRead takes a shard lock — the seeded latched-read violation.
//
//potlint:snapshot-read
func lockedRead(sh *pmem.Sharded, id oid.PoolID) {
	sh.RLockPool(id) // want "shard lock acquired in //potlint:snapshot-read function lockedRead"
	sh.RUnlockPool(id)
}

// lockAllRead takes the store-wide read lock.
//
//potlint:snapshot-read
func lockAllRead(sh *pmem.Sharded) {
	sh.RLockAll() // want "shard lock acquired in //potlint:snapshot-read function lockAllRead"
	sh.RUnlockAll()
}

// mutatingRead opens a mutating sharded transaction.
//
//potlint:snapshot-read
func mutatingRead(sh *pmem.Sharded, pools []oid.PoolID) error {
	return sh.Update(pools, func() error { return nil }) // want "mutating Update transaction opened in //potlint:snapshot-read function mutatingRead"
}

// viewingRead opens a latched View section — read-only but not latch-free.
//
//potlint:snapshot-read
func viewingRead(sh *pmem.Sharded, pools []oid.PoolID) error {
	return sh.View(pools, func() error { return nil }) // want "latched View section opened in //potlint:snapshot-read function viewingRead"
}

// beginRead opens a heap transaction directly.
//
//potlint:snapshot-read
func beginRead(h *pmem.Heap, p *pmem.Pool) (*pmem.Tx, error) {
	return h.Begin(p) // want "mutating heap transaction opened in //potlint:snapshot-read function beginRead"
}

// latchedHelper is an unannotated helper with balanced shard locks; calling
// it from a snapshot-read function is flagged interprocedurally.
func latchedHelper(sh *pmem.Sharded, id oid.PoolID) {
	sh.RLockPool(id)
	sh.RUnlockPool(id)
}

//potlint:snapshot-read
func indirectLocked(sh *pmem.Sharded, id oid.PoolID) {
	latchedHelper(sh, id) // want "calls latchedHelper which takes shard locks, in //potlint:snapshot-read function indirectLocked"
}

// trustedInner / trustedOuter: annotated callees are trusted, so
// composition of snapshot-read functions is clean.
//
//potlint:snapshot-read
func trustedInner(sh *pmem.Sharded) *pmem.PinSlot { return sh.Pin() }

//potlint:snapshot-read
func trustedOuter(sh *pmem.Sharded) {
	if pin := trustedInner(sh); pin != nil {
		sh.Unpin(pin)
	}
}

// mirror mimics the version mirror's bucket shape: a plain struct-field
// mutex guards a short internal section — not shard state, allowed.
type mirror struct {
	mu   sync.Mutex
	head *mirrorEntry
}

type mirrorEntry struct {
	o    oid.OID
	next *mirrorEntry
}

//potlint:snapshot-read
func (m *mirror) lookup(o oid.OID) *mirrorEntry {
	m.mu.Lock()
	e := m.head
	for e != nil && e.o != o {
		e = e.next
	}
	m.mu.Unlock()
	return e
}

// fallbackRead keeps a latched fallback for mirror misses behind a
// line-level allowance — the KV entry-point pattern.
//
//potlint:snapshot-read
func fallbackRead(sh *pmem.Sharded, id oid.PoolID) {
	if pin := sh.Pin(); pin != nil {
		sh.Unpin(pin)
		return
	}
	sh.RLockPool(id) //potlint:allow snapshotread latched fallback on mirror miss or pin exhaustion
	sh.RUnlockPool(id)
}
