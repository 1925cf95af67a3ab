package pmem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"potgo/internal/isa"
	"potgo/internal/nvmsim"
	"potgo/internal/oid"
)

func newTestSharded(t *testing.T, nshards int) *Sharded {
	t.Helper()
	sh, err := NewSharded(NewStore(), nshards, 1)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return sh
}

// shardedTx runs fn inside a transaction whose undo log lives in logPool,
// holding the write locks of logPool's and every extra pool's shard: fn
// then Commit, or Abort when fn fails.
func shardedTx(sh *Sharded, logPool *Pool, extra []oid.PoolID, fn func(*Tx) error) error {
	return sh.Update(append([]oid.PoolID{logPool.ID()}, extra...), func() error {
		t, err := sh.Heap().Begin(logPool)
		if err != nil {
			return err
		}
		if err := fn(t); err != nil {
			if aerr := t.Abort(); aerr != nil {
				return fmt.Errorf("%w (abort also failed: %v)", err, aerr)
			}
			return err
		}
		return t.Commit()
	})
}

// TestShardedDisjointTxParallel runs transactional allocations from several
// goroutines, each on its own pool (its own shard), and verifies every
// committed canary plus the allocator sweep. Run under -race this is the
// core safety proof of the sharded heap's lock plan.
func TestShardedDisjointTxParallel(t *testing.T) {
	const workers = 4
	const iters = 100
	sh := newTestSharded(t, workers)

	pools := make([]*Pool, workers)
	for i := range pools {
		p, err := sh.Create(fmt.Sprintf("shard-par-%d", i), 1<<20)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		pools[i] = p
	}

	type obj struct {
		o      oid.OID
		canary uint64
	}
	got := make([][]obj, workers)
	errs := make([]error, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := pools[w]
			for i := 0; i < iters; i++ {
				canary := uint64(w)<<32 | uint64(i) | 1
				err := shardedTx(sh, p, nil, func(tx *Tx) error {
					o, err := tx.Alloc(p, 64)
					if err != nil {
						return err
					}
					ref, err := sh.Heap().Deref(o, isa.RZ)
					if err != nil {
						return err
					}
					if err := ref.Store64(0, canary, isa.RZ); err != nil {
						return err
					}
					got[w] = append(got[w], obj{o: o, canary: canary})
					return nil
				})
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	ids := make([]oid.PoolID, len(pools))
	for i, p := range pools {
		ids[i] = p.ID()
	}
	err := sh.View(ids, func() error {
		for w := range got {
			if len(got[w]) != iters {
				return fmt.Errorf("worker %d committed %d objects, want %d", w, len(got[w]), iters)
			}
			for _, ob := range got[w] {
				ref, err := sh.Heap().Deref(ob.o, isa.RZ)
				if err != nil {
					return err
				}
				word, err := ref.Load64(0)
				if err != nil {
					return err
				}
				if word.V != ob.canary {
					return fmt.Errorf("object %v holds %#x, want %#x", ob.o, word.V, ob.canary)
				}
			}
		}
		for _, p := range pools {
			if err := sh.Heap().CheckPool(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardedMultiPoolAbort proves a transaction spanning two shards rolls
// back both pools when the callback fails.
func TestShardedMultiPoolAbort(t *testing.T) {
	sh := newTestSharded(t, 4)
	a, err := sh.Create("abort-a", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sh.Create("abort-b", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	h := sh.Heap()

	var rootA, rootB oid.OID
	err = sh.Update([]oid.PoolID{a.ID(), b.ID()}, func() error {
		var err error
		if rootA, err = h.Root(a, 16); err != nil {
			return err
		}
		rootB, err = h.Root(b, 16)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	write := func(o oid.OID, v uint64) error {
		ref, err := h.Deref(o, isa.RZ)
		if err != nil {
			return err
		}
		return ref.Store64(0, v, isa.RZ)
	}
	read := func(o oid.OID) uint64 {
		ref, err := h.Deref(o, isa.RZ)
		if err != nil {
			t.Fatalf("Deref: %v", err)
		}
		w, err := ref.Load64(0)
		if err != nil {
			t.Fatalf("Load64: %v", err)
		}
		return w.V
	}

	err = shardedTx(sh, a, []oid.PoolID{b.ID()}, func(tx *Tx) error {
		if err := tx.AddRange(rootA, 8); err != nil {
			return err
		}
		if err := tx.AddRange(rootB, 8); err != nil {
			return err
		}
		if err := write(rootA, 0x1111); err != nil {
			return err
		}
		if err := write(rootB, 0x2222); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatalf("committing tx: %v", err)
	}

	boom := fmt.Errorf("boom")
	err = shardedTx(sh, a, []oid.PoolID{b.ID()}, func(tx *Tx) error {
		if err := tx.AddRange(rootA, 8); err != nil {
			return err
		}
		if err := tx.AddRange(rootB, 8); err != nil {
			return err
		}
		if err := write(rootA, 0xdead); err != nil {
			return err
		}
		if err := write(rootB, 0xbeef); err != nil {
			return err
		}
		return boom
	})
	if err == nil {
		t.Fatal("failing tx returned nil")
	}

	err = sh.View([]oid.PoolID{a.ID(), b.ID()}, func() error {
		if v := read(rootA); v != 0x1111 {
			return fmt.Errorf("pool a root = %#x after abort, want 0x1111", v)
		}
		if v := read(rootB); v != 0x2222 {
			return fmt.Errorf("pool b root = %#x after abort, want 0x2222", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardedPoisonCrash arms the persistence domain under a concurrent
// transactional load: exactly one worker catches the primary crash signal,
// every other worker that touches the dead domain gets a poisoned one, and
// after the power cycle all pools recover to a consistent state.
func TestShardedPoisonCrash(t *testing.T) {
	const workers = 4
	sh := newTestSharded(t, workers)
	h := sh.Heap()

	names := make([]string, workers)
	pools := make([]*Pool, workers)
	for i := range pools {
		names[i] = fmt.Sprintf("poison-%d", i)
		p, err := sh.Create(names[i], 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		pools[i] = p
	}

	h.NV.Arm(h.NV.Events() + 2000)

	var primaries, poisoned uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				cs, ok := nvmsim.AsCrashSignal(r)
				if !ok {
					panic(r)
				}
				if cs.Poisoned {
					atomic.AddUint64(&poisoned, 1)
				} else {
					atomic.AddUint64(&primaries, 1)
				}
			}()
			p := pools[w]
			for i := 0; ; i++ {
				err := shardedTx(sh, p, nil, func(tx *Tx) error {
					o, err := tx.Alloc(p, 64)
					if err != nil {
						return err
					}
					ref, err := h.Deref(o, isa.RZ)
					if err != nil {
						return err
					}
					return ref.Store64(0, uint64(w)<<32|uint64(i), isa.RZ)
				})
				if err != nil {
					t.Errorf("worker %d pre-crash error: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if primaries != 1 {
		t.Fatalf("%d primary crash signals, want exactly 1 (poisoned: %d)", primaries, poisoned)
	}
	if primaries+poisoned != workers {
		t.Fatalf("%d workers stopped by the domain, want all %d", primaries+poisoned, workers)
	}

	if _, err := sh.Crash(nvmsim.DropAllPolicy()); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	for i, name := range names {
		p, err := sh.Open(name)
		if err != nil {
			t.Fatalf("reopen %s: %v", name, err)
		}
		if err := sh.Recover(p); err != nil {
			t.Fatalf("recover %s: %v", name, err)
		}
		pools[i] = p
	}
	ids := make([]oid.PoolID, len(pools))
	for i, p := range pools {
		ids[i] = p.ID()
	}
	err := sh.View(ids, func() error {
		for _, p := range pools {
			if err := h.CheckPool(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBeginPerPoolExclusive checks the per-pool transaction registry: two
// live handles on one pool are rejected, handles on different pools are
// independent.
func TestBeginPerPoolExclusive(t *testing.T) {
	sh := newTestSharded(t, 2)
	h := sh.Heap()
	a, err := sh.Create("excl-a", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sh.Create("excl-b", 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	ta, err := h.Begin(a)
	if err != nil {
		t.Fatalf("Begin(a): %v", err)
	}
	if _, err := h.Begin(a); err == nil {
		t.Fatal("second Begin on one pool succeeded")
	}
	tb, err := h.Begin(b)
	if err != nil {
		t.Fatalf("Begin(b) while a is busy: %v", err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatalf("Commit(b): %v", err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatalf("Commit(a): %v", err)
	}
	if _, err := h.Begin(a); err != nil {
		t.Fatalf("Begin(a) after commit: %v", err)
	}
}
