package pmem

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"potgo/internal/isa"
	"potgo/internal/nvmsim"
	"potgo/internal/oid"
)

// mvccEnv is a sharded heap with one MVCC-enabled pool and one 16-byte
// object committed with the given initial value (so the mirror has a
// version chain and G has advanced past the seed epoch).
func newMVCCEnv(t *testing.T) (*Sharded, *Pool, oid.OID) {
	t.Helper()
	sh := newTestSharded(t, 4)
	p, err := sh.Create("p", 1<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	sh.EnableMVCC(p)
	return sh, p, mvccPut(t, sh, p, oid.Null, 1)
}

// mvccPut commits one transaction writing val into o's first word,
// allocating the object first when o is null. Returns the object.
func mvccPut(t *testing.T, sh *Sharded, p *Pool, o oid.OID, val uint64) oid.OID {
	t.Helper()
	err := shardedTx(sh, p, nil, func(tx *Tx) error {
		if o.IsNull() {
			var err error
			if o, err = tx.Alloc(p, 16); err != nil {
				return err
			}
		} else if err := tx.AddRange(o, 16); err != nil {
			return err
		}
		ref, err := sh.Heap().Deref(o, isa.RZ)
		if err != nil {
			return err
		}
		return ref.Store64(0, val, isa.RZ)
	})
	if err != nil {
		t.Fatalf("mvccPut: %v", err)
	}
	return o
}

// snapVal resolves o through the pin and decodes the first word.
func snapVal(t *testing.T, s *PinSlot, o oid.OID) (uint64, bool) {
	t.Helper()
	buf, ok := s.SnapDeref(o)
	if !ok {
		return 0, false
	}
	if len(buf) < 8 {
		t.Fatalf("snapshot buf too short: %d", len(buf))
	}
	return binary.LittleEndian.Uint64(buf), true
}

// TestMVCCPinSeesCommitAtPinEpoch: a pin taken after a commit observes it;
// a pin held across a later commit keeps observing the pre-commit value,
// while a fresh pin observes the new one.
func TestMVCCPinSeesCommitAtPinEpoch(t *testing.T) {
	sh, p, o := newMVCCEnv(t)
	m := sh.MVCC()

	old := m.Pin()
	if old == nil {
		t.Fatal("Pin returned nil with an empty registry")
	}
	if v, ok := snapVal(t, old, o); !ok || v != 1 {
		t.Fatalf("pinned read = %d,%v; want 1,true", v, ok)
	}

	mvccPut(t, sh, p, o, 2)

	if v, ok := snapVal(t, old, o); !ok || v != 1 {
		t.Fatalf("held pin must keep the old version: got %d,%v; want 1,true", v, ok)
	}
	fresh := m.Pin()
	if fresh == nil {
		t.Fatal("second Pin returned nil")
	}
	if v, ok := snapVal(t, fresh, o); !ok || v != 2 {
		t.Fatalf("fresh pin read = %d,%v; want 2,true", v, ok)
	}
	if fresh.Epoch() <= old.Epoch() {
		t.Fatalf("epochs must advance: old %d, fresh %d", old.Epoch(), fresh.Epoch())
	}
	m.Unpin(old)
	m.Unpin(fresh)
}

// TestMVCCReclaimRespectsPins: a superseded version survives reclamation
// while a pin can still see it, and is freed once the pin drops.
func TestMVCCReclaimRespectsPins(t *testing.T) {
	sh, p, o := newMVCCEnv(t)
	m := sh.MVCC()

	old := m.Pin()
	mvccPut(t, sh, p, o, 2)

	if freed := m.Reclaim(); freed != 0 {
		t.Fatalf("Reclaim freed %d versions under an active pin", freed)
	}
	if v, ok := snapVal(t, old, o); !ok || v != 1 {
		t.Fatalf("post-reclaim pinned read = %d,%v; want 1,true", v, ok)
	}

	m.Unpin(old)
	if freed := m.Reclaim(); freed == 0 {
		t.Fatal("Reclaim freed nothing after the pin dropped")
	}
	fresh := m.Pin()
	if v, ok := snapVal(t, fresh, o); !ok || v != 2 {
		t.Fatalf("current version lost by reclamation: %d,%v; want 2,true", v, ok)
	}
	m.Unpin(fresh)
}

// TestMVCCPinExhaustion: a full registry returns nil (latched fallback),
// and a freed slot becomes claimable again.
func TestMVCCPinExhaustion(t *testing.T) {
	m := NewMVCC(2)
	a, b := m.Pin(), m.Pin()
	if a == nil || b == nil {
		t.Fatal("registry of 2 must serve two pins")
	}
	if m.Pin() != nil {
		t.Fatal("exhausted registry must return nil")
	}
	m.Unpin(a)
	c := m.Pin()
	if c == nil {
		t.Fatal("freed slot must be claimable")
	}
	m.Unpin(b)
	m.Unpin(c)
}

// TestMVCCMultiObjectCommitAtomic: a transaction touching two objects
// becomes visible atomically — any pin sees either both old or both new
// values, never a mix. (Single-threaded: a pin taken before the commit
// sees both old; after, both new.)
func TestMVCCMultiObjectCommitAtomic(t *testing.T) {
	sh, p, o1 := newMVCCEnv(t)
	m := sh.MVCC()
	o2 := mvccPut(t, sh, p, oid.Null, 10)

	before := m.Pin()
	err := shardedTx(sh, p, nil, func(tx *Tx) error {
		for _, o := range []oid.OID{o1, o2} {
			if err := tx.AddRange(o, 16); err != nil {
				return err
			}
			ref, err := sh.Heap().Deref(o, isa.RZ)
			if err != nil {
				return err
			}
			w, err := ref.Load64(0)
			if err != nil {
				return err
			}
			if err := ref.Store64(0, w.V+100, w.Reg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("multi-object tx: %v", err)
	}
	v1, _ := snapVal(t, before, o1)
	v2, _ := snapVal(t, before, o2)
	if v1 != 1 || v2 != 10 {
		t.Fatalf("pre-commit pin saw %d,%d; want 1,10", v1, v2)
	}
	after := m.Pin()
	v1, _ = snapVal(t, after, o1)
	v2, _ = snapVal(t, after, o2)
	if v1 != 101 || v2 != 110 {
		t.Fatalf("post-commit pin saw %d,%d; want 101,110", v1, v2)
	}
	m.Unpin(before)
	m.Unpin(after)
}

// TestMVCCFreeDemotes: freeing an object ends its chain — an old pin keeps
// reading it, a fresh pin misses (and falls back to the latched path, which
// would report the free through the allocator).
func TestMVCCFreeDemotes(t *testing.T) {
	sh, p, o := newMVCCEnv(t)
	m := sh.MVCC()

	old := m.Pin()
	if err := shardedTx(sh, p, nil, func(tx *Tx) error { return tx.Free(o) }); err != nil {
		t.Fatalf("free tx: %v", err)
	}
	if v, ok := snapVal(t, old, o); !ok || v != 1 {
		t.Fatalf("pin predating the free must still read: %d,%v", v, ok)
	}
	fresh := m.Pin()
	if _, ok := snapVal(t, fresh, o); ok {
		t.Fatal("freed object must be invisible to a fresh pin")
	}
	m.Unpin(old)
	m.Unpin(fresh)
}

// TestMVCCSameTxAllocFree: an object allocated and freed inside one
// transaction never becomes visible.
func TestMVCCSameTxAllocFree(t *testing.T) {
	sh, p, _ := newMVCCEnv(t)
	m := sh.MVCC()
	var o oid.OID
	err := shardedTx(sh, p, nil, func(tx *Tx) error {
		var err error
		if o, err = tx.Alloc(p, 16); err != nil {
			return err
		}
		return tx.Free(o)
	})
	if err != nil {
		t.Fatalf("alloc+free tx: %v", err)
	}
	s := m.Pin()
	if _, ok := snapVal(t, s, o); ok {
		t.Fatal("same-tx alloc+free must leave no visible version")
	}
	m.Unpin(s)
}

// TestMVCCStaleMutation: MutateStaleReads freezes new pins at the mutation
// epoch (readers keep seeing the stale prefix while writers advance) and
// ClearStaleMutation restores honest pinning.
func TestMVCCStaleMutation(t *testing.T) {
	sh, p, o := newMVCCEnv(t)
	m := sh.MVCC()

	m.MutateStaleReads()
	mvccPut(t, sh, p, o, 2)

	s := m.Pin()
	if v, ok := snapVal(t, s, o); !ok || v != 1 {
		t.Fatalf("mutated pin read = %d,%v; want the stale 1,true", v, ok)
	}
	m.Unpin(s)

	m.ClearStaleMutation()
	s = m.Pin()
	if v, ok := snapVal(t, s, o); !ok || v != 2 {
		t.Fatalf("post-clear pin read = %d,%v; want 2,true", v, ok)
	}
	m.Unpin(s)
}

// TestMVCCCrashResets: a crash discards the volatile mirror entirely.
func TestMVCCCrashResets(t *testing.T) {
	sh, _, o := newMVCCEnv(t)
	m := sh.MVCC()
	if _, err := sh.Crash(nvmsim.DropAllPolicy()); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if got := m.Epoch(); got != 1 {
		t.Fatalf("post-crash epoch = %d, want 1", got)
	}
	s := m.Pin()
	if _, ok := snapVal(t, s, o); ok {
		t.Fatal("post-crash mirror must be empty until reseeded")
	}
	m.Unpin(s)
}

// TestMVCCSeedVisible: Seed publishes a borne-0 version visible at every
// epoch — the mount-time bootstrap for pre-existing objects.
func TestMVCCSeedVisible(t *testing.T) {
	sh := newTestSharded(t, 2)
	p, err := sh.Create("p", 1<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	o, err := sh.Heap().Alloc(p, 16)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	ref, _ := sh.Heap().Deref(o, isa.RZ)
	if err := ref.Store64(0, 77, isa.RZ); err != nil {
		t.Fatalf("Store64: %v", err)
	}
	sh.EnableMVCC(p)
	m := sh.MVCC()
	if err := m.Seed(sh.Heap(), p, o, 16); err != nil {
		t.Fatalf("Seed: %v", err)
	}
	s := m.Pin()
	if v, ok := snapVal(t, s, o); !ok || v != 77 {
		t.Fatalf("seeded read = %d,%v; want 77,true", v, ok)
	}
	m.Unpin(s)
}

// TestMVCCConcurrentReadersWritersReclaim is the race-detector proof for
// the mirror: readers pin/deref latch-free, a writer commits increasing
// values, and a reclaimer sweeps — all concurrently. Each reader's
// observed sequence must be monotone non-decreasing (epochs only advance)
// and every pinned deref must succeed (the chain always has a version
// visible at the pinned epoch once seeded).
//
// Between overwrites the writer allocates fresh objects — enough that every
// stripe of the version index doubles its table several times under the
// readers' feet — and frees half of them again, so growing stripes (and the
// reclaimer) also unlink entries while look-ups are in flight. A second,
// never-written object must stay resolvable through every rehash.
func TestMVCCConcurrentReadersWritersReclaim(t *testing.T) {
	sh, p, o := newMVCCEnv(t)
	m := sh.MVCC()
	still := mvccPut(t, sh, p, oid.Null, 7)

	const (
		readers  = 4
		writes   = 300
		perWrite = 6 // fresh objects per overwrite: 1800 in all, ~28 per stripe
		reads    = 600
	)
	var stop atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer stop.Store(true)
		for i := uint64(2); i < 2+writes; i++ {
			mvccPut(t, sh, p, o, i)
			var fresh [perWrite]oid.OID
			for j := range fresh {
				fresh[j] = mvccPut(t, sh, p, oid.Null, i)
			}
			err := shardedTx(sh, p, nil, func(tx *Tx) error {
				for _, f := range fresh[:perWrite/2] {
					if err := tx.Free(f); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("free tx: %v", err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // reclaimer
		defer wg.Done()
		for !stop.Load() {
			sh.ReclaimVersions()
		}
		sh.ReclaimVersions()
	}()

	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for i := 0; i < reads; i++ {
				s := m.Pin()
				if s == nil {
					continue // registry momentarily exhausted: fallback path
				}
				v, ok := snapVal(t, s, o)
				w, okStill := snapVal(t, s, still)
				m.Unpin(s)
				if !ok || !okStill || w != 7 {
					errs <- "pinned deref failed on a seeded object"
					return
				}
				if v < last {
					errs <- "observed value went backwards"
					return
				}
				last = v
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	pub, rec := m.Stats()
	if pub == 0 || rec == 0 {
		t.Fatalf("stress must publish and reclaim: publishes=%d reclaimed=%d", pub, rec)
	}
	idx := m.IndexStats()
	if idx.Slots < 4*mvStripes*mvMinSlots {
		t.Fatalf("index has %d slots: the stripes did not double at least twice each on average", idx.Slots)
	}
	if pub-rec != uint64(idx.Versions) {
		t.Fatalf("publishes-reclaimed = %d, index holds %d versions", pub-rec, idx.Versions)
	}
}
