package objstore

import (
	"testing"

	"potgo/internal/nvmsim"
	"potgo/internal/randtest"
)

// TestKVVersionGaugeExact: HeapStats.MVCCPublishes - MVCCReclaimed — the
// figure the benchmark reports as versions unreclaimed — is exactly the
// number of versions reachable from the mirror's index at every point of a
// store's life: created, churned (tree nodes split, merge and are freed),
// crashed, reopened (every reachable object seeded) and churned again.
func TestKVVersionGaugeExact(t *testing.T) {
	kv := newKV(t, 4)
	sh := kv.Sharded()
	check := func(when string) {
		t.Helper()
		s := sh.Heap().StatsSnapshot()
		if s.MVCCReclaimed > s.MVCCPublishes {
			t.Fatalf("%s: reclaimed %d > publishes %d: the gauge underflows", when, s.MVCCReclaimed, s.MVCCPublishes)
		}
		held := sh.MVCC().IndexStats().Versions
		if got := s.MVCCPublishes - s.MVCCReclaimed; got != uint64(held) {
			t.Fatalf("%s: publishes-reclaimed = %d-%d = %d, the index holds %d versions",
				when, s.MVCCPublishes, s.MVCCReclaimed, got, held)
		}
	}
	rng := randtest.New(t, 14)
	churn := func(ops int) {
		t.Helper()
		for i := 0; i < ops; i++ {
			key := uint64(rng.Intn(2000) + 1)
			var err error
			if rng.Intn(3) == 0 {
				_, err = kv.Delete(key)
			} else {
				_, err = kv.Put(key, rng.Uint64())
			}
			if err != nil {
				t.Fatalf("op %d on key %d: %v", i, key, err)
			}
		}
	}

	check("created")
	for key := uint64(1); key <= 2000; key++ {
		if _, err := kv.Put(key, key); err != nil {
			t.Fatalf("Put %d: %v", key, err)
		}
	}
	check("loaded")
	churn(6000)
	check("churned")
	sh.ReclaimVersions()
	check("reclaimed")

	if _, err := sh.Crash(nvmsim.DropAllPolicy()); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	check("crashed")
	if held := sh.MVCC().IndexStats().Versions; held != 0 {
		t.Fatalf("crashed: the index still holds %d versions", held)
	}
	var err error
	if kv, err = OpenKV(sh, "kv"); err != nil {
		t.Fatalf("OpenKV: %v", err)
	}
	check("reopened")
	if held := sh.MVCC().IndexStats().Versions; held == 0 {
		t.Fatal("reopened: nothing was seeded")
	}
	churn(6000)
	check("churned after reopen")
	if err := kv.Reprime(); err != nil {
		t.Fatalf("Reprime: %v", err)
	}
	check("reprimed")
}
