package pmem

import (
	"math/rand"
	"testing"

	"potgo/internal/isa"
	"potgo/internal/oid"
)

// mvccPutTB is mvccPut for tests and benchmarks alike (testing.TB).
func mvccPutTB(tb testing.TB, sh *Sharded, p *Pool, o oid.OID, val uint64) oid.OID {
	tb.Helper()
	err := sh.Tx(p, nil, func(tx *Tx) error {
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
		tb.Fatalf("mvccPutTB: %v", err)
	}
	return o
}

// TestMVCCHotKeyChainBounded: a pinned reader makes a write-hot object's
// version chain grow without bound — Reclaim must not free versions the
// pin can still see — and releasing the pin lets one Reclaim prune the
// chain back to O(1). This is the memory-pressure contract hot-key
// workloads rely on.
func TestMVCCHotKeyChainBounded(t *testing.T) {
	sh, p, o := newMVCCEnv(t)
	m := sh.MVCC()

	pin := m.Pin()
	if pin == nil {
		t.Fatal("Pin returned nil on an empty registry")
	}
	const writes = 200
	for i := 0; i < writes; i++ {
		mvccPut(t, sh, p, o, uint64(i+2))
		if i%32 == 0 {
			m.Reclaim() // must be a no-op below the pinned epoch
		}
	}
	// Every superseded version died after the pin's epoch, so the chain
	// holds (roughly) every write while the pin lives.
	if got := m.ChainLen(o); got < writes/2 {
		t.Fatalf("chain length %d under a held pin, expected ~%d (reclaim freed pinned versions?)", got, writes+1)
	}
	m.Reclaim()
	if got := m.ChainLen(o); got < writes/2 {
		t.Fatalf("chain length %d after Reclaim under a held pin", got)
	}

	// Pin released: the next sweep prunes everything invisible to future
	// readers — the current version plus at most the one visible at the
	// sweep's epoch floor.
	m.Unpin(pin)
	if freed := m.Reclaim(); freed < writes/2 {
		t.Fatalf("Reclaim freed %d versions after release, want >= %d", freed, writes/2)
	}
	if got := m.ChainLen(o); got > 2 {
		t.Fatalf("chain length %d after release+Reclaim, want <= 2", got)
	}
	if got := m.IndexStats().MaxChain; got > 2 {
		t.Fatalf("max chain length %d after release+Reclaim, want <= 2", got)
	}
}

// BenchmarkMVCCHotKeyZipf measures the version-chain memory pressure of a
// zipfian write workload (one object takes most of the writes) while a
// reader pin is held for fixed windows, forcing chains to accumulate
// between reclaims. Reports the peak chain length alongside ns/op, and
// fails if the final release + Reclaim does not collapse the hot chain.
func BenchmarkMVCCHotKeyZipf(b *testing.B) {
	sh, err := NewSharded(NewStore(), 4, 1)
	if err != nil {
		b.Fatalf("NewSharded: %v", err)
	}
	p, err := sh.Create("p", 8<<20)
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	sh.EnableMVCC(p)
	m := sh.MVCC()

	const objects = 64
	oids := make([]oid.OID, objects)
	for i := range oids {
		oids[i] = mvccPutTB(b, sh, p, oid.Null, uint64(i))
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, objects-1)

	// One pin held per 256-write window: versions pile up during the
	// window, the release + Reclaim prunes them, a fresh pin opens the
	// next window.
	pin := m.Pin()
	if pin == nil {
		b.Fatal("Pin returned nil on an empty registry")
	}
	held, maxChain := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mvccPutTB(b, sh, p, oids[zipf.Uint64()], uint64(i))
		held++
		if held == 256 {
			if c := m.IndexStats().MaxChain; c > maxChain {
				maxChain = c
			}
			m.Unpin(pin)
			m.Reclaim()
			pin = m.Pin()
			held = 0
		}
	}
	b.StopTimer()
	if c := m.IndexStats().MaxChain; c > maxChain {
		maxChain = c
	}
	m.Unpin(pin)
	m.Reclaim()
	b.ReportMetric(float64(maxChain), "peak-chain")
	if got := m.IndexStats().MaxChain; got > 2 {
		b.Fatalf("max chain length %d after final release+Reclaim, want <= 2", got)
	}
}
