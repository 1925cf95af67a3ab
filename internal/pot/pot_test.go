package pot

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"potgo/internal/oid"
	"potgo/internal/vm"
)

func newTable(t *testing.T, entries int) *Table {
	t.Helper()
	as := vm.NewAddressSpace(1)
	tab, err := New(as, entries)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewValidation(t *testing.T) {
	as := vm.NewAddressSpace(1)
	for _, n := range []int{0, -1, 3, 100} {
		if _, err := New(as, n); err == nil {
			t.Errorf("New(%d) must fail", n)
		}
	}
	tab, err := New(as, DefaultEntries)
	if err != nil {
		t.Fatal(err)
	}
	if tab.SizeBytes() != 256*1024 {
		t.Errorf("paper says 16384 entries occupy 256 KB, got %d", tab.SizeBytes())
	}
	if tab.Entries() != DefaultEntries {
		t.Errorf("Entries = %d", tab.Entries())
	}
	if tab.Base() == 0 {
		t.Error("table must have a base address")
	}
}

func TestInsertWalk(t *testing.T) {
	tab := newTable(t, 64)
	if err := tab.Insert(7, 0x7000_0000_1000); err != nil {
		t.Fatal(err)
	}
	v, probes, err := tab.Walk(7)
	if err != nil || v != 0x7000_0000_1000 {
		t.Fatalf("Walk = %#x, %v", v, err)
	}
	if probes < 1 {
		t.Error("walk must probe at least one entry")
	}
	if _, _, err := tab.Walk(8); !errors.Is(err, ErrNoTranslation) {
		t.Errorf("missing pool must raise exception, got %v", err)
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d", tab.Len())
	}
}

func TestInsertReservedPool(t *testing.T) {
	tab := newTable(t, 64)
	if err := tab.Insert(oid.NullPool, 0x1000); err == nil {
		t.Error("pool 0 is reserved and must be rejected")
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	tab := newTable(t, 64)
	_ = tab.Insert(5, 0x1000)
	_ = tab.Insert(5, 0x2000)
	if tab.Len() != 1 {
		t.Errorf("re-insert must not grow table, Len = %d", tab.Len())
	}
	v, _, _ := tab.Walk(5)
	if v != 0x2000 {
		t.Errorf("re-insert must update base, got %#x", v)
	}
}

func TestLinearProbingCollisions(t *testing.T) {
	tab := newTable(t, 8)
	// Fill most of a tiny table; collisions are certain.
	pools := []oid.PoolID{1, 2, 3, 4, 5, 6}
	for i, p := range pools {
		if err := tab.Insert(p, uint64(0x1000*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pools {
		v, _, err := tab.Walk(p)
		if err != nil || v != uint64(0x1000*(i+1)) {
			t.Errorf("pool %d: Walk = %#x, %v", p, v, err)
		}
	}
}

func TestFull(t *testing.T) {
	tab := newTable(t, 4)
	for p := oid.PoolID(1); p <= 4; p++ {
		if err := tab.Insert(p, uint64(p)*0x1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Insert(5, 0x9000); !errors.Is(err, ErrFull) {
		t.Errorf("full table must reject insert, got %v", err)
	}
	// A probe for a missing pool in a full table must terminate.
	if _, _, err := tab.Walk(99); !errors.Is(err, ErrNoTranslation) {
		t.Errorf("walk on full table for absent pool: %v", err)
	}
	// So must a removal: with no invalid entry to end the chain, the
	// backward shift stops when it comes round to the hole.
	for victim := oid.PoolID(1); victim <= 4; victim++ {
		if err := tab.Remove(victim); err != nil {
			t.Fatal(err)
		}
		for p := oid.PoolID(1); p <= 4; p++ {
			v, ok := tab.Lookup(p)
			if ok != (p != victim) || (ok && v != uint64(p)*0x1000) {
				t.Errorf("after removing %d from a full table: pool %d = %#x, %t", victim, p, v, ok)
			}
		}
		if err := tab.Insert(victim, uint64(victim)*0x1000); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRemoveBackwardShift(t *testing.T) {
	tab := newTable(t, 8)
	pools := []oid.PoolID{1, 2, 3, 4, 5}
	for _, p := range pools {
		if err := tab.Insert(p, uint64(p)*0x1000); err != nil {
			t.Fatal(err)
		}
	}
	// Remove from the middle of chains, then everything must still be
	// findable (backward-shift correctness).
	if err := tab.Remove(3); err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.Lookup(3); ok {
		t.Error("removed pool still present")
	}
	for _, p := range []oid.PoolID{1, 2, 4, 5} {
		v, ok := tab.Lookup(p)
		if !ok || v != uint64(p)*0x1000 {
			t.Errorf("pool %d lost after removal: %#x, %t", p, v, ok)
		}
	}
	if err := tab.Remove(3); err == nil {
		t.Error("double remove must fail")
	}
	if err := tab.Remove(42); err == nil {
		t.Error("removing unknown pool must fail")
	}
	if tab.Len() != 4 {
		t.Errorf("Len = %d", tab.Len())
	}
}

func TestStats(t *testing.T) {
	tab := newTable(t, 64)
	_ = tab.Insert(9, 0x9000)
	tab.Walk(9)
	tab.Walk(10)
	s := tab.Stats()
	if s.Walks != 2 || s.Misses != 1 || s.Probes < 2 {
		t.Errorf("stats = %+v", s)
	}
}

// Property: after a random sequence of inserts and removes, the table agrees
// with a reference map.
func TestQuickAgainstReferenceMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := newTable(t, 64)
		ref := map[oid.PoolID]uint64{}
		for i := 0; i < 300; i++ {
			p := oid.PoolID(rng.Intn(40) + 1)
			if rng.Intn(3) == 0 {
				if _, ok := ref[p]; ok {
					if err := tab.Remove(p); err != nil {
						return false
					}
					delete(ref, p)
				}
			} else if len(ref) < 48 {
				v := rng.Uint64() &^ 0xfff
				if err := tab.Insert(p, v); err != nil {
					return false
				}
				ref[p] = v
			}
		}
		if tab.Len() != len(ref) {
			return false
		}
		for p, v := range ref {
			got, ok := tab.Lookup(p)
			if !ok || got != v {
				return false
			}
		}
		// And absent pools must miss.
		for p := oid.PoolID(41); p < 60; p++ {
			if _, ok := tab.Lookup(p); ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Walk and Lookup always agree.
func TestQuickWalkLookupAgree(t *testing.T) {
	tab := newTable(t, 128)
	for p := oid.PoolID(1); p <= 50; p += 2 {
		if err := tab.Insert(p, uint64(p)<<12); err != nil {
			t.Fatal(err)
		}
	}
	f := func(p uint16) bool {
		pool := oid.PoolID(p%64 + 1)
		v1, ok := tab.Lookup(pool)
		v2, _, err := tab.Walk(pool)
		if ok != (err == nil) {
			return false
		}
		return !ok || v1 == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
