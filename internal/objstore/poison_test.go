package objstore

import (
	"testing"

	"potgo/internal/nvmsim"
)

// TestPoisonedBeginRaisesCrash: after a crash fires inside one Put on a
// sharded heap (poison-on-crash) and is recovered, as a cluster node
// recovers it, every later write on that heap must raise the poisoned crash
// signal — on the crashed Put's own shard too, where the unwound
// transaction is still registered, not a plain "transaction already
// active" error a caller would take for a live refusal.
func TestPoisonedBeginRaisesCrash(t *testing.T) {
	kv := newKV(t, 2)
	for k := uint64(0); k < 8; k++ {
		if _, err := kv.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	nv := kv.Sharded().Heap().NV
	put := func(key uint64) (sig *nvmsim.CrashSignal, err error) {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if sig, ok = nvmsim.AsCrashSignal(r); !ok {
					panic(r)
				}
			}
		}()
		_, err = kv.Put(key, 100+key)
		return nil, err
	}
	nv.Arm(nv.Events() + 5) // inside the transaction, after Begin
	if sig, err := put(0); sig == nil || sig.Poisoned {
		t.Fatalf("armed put: signal %+v, err %v; want the primary crash signal", sig, err)
	}
	if !nv.Poisoned() {
		t.Fatal("domain not poisoned after the armed crash")
	}
	for _, key := range []uint64{2, 1} { // the crashed shard, then the other
		if sig, err := put(key); sig == nil || !sig.Poisoned {
			t.Fatalf("put %d on a poisoned heap: signal %+v, err %v; want the poisoned crash signal", key, sig, err)
		}
	}
}
