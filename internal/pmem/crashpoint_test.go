package pmem

import (
	"fmt"
	"testing"

	"potgo/internal/emit"
	"potgo/internal/isa"
	"potgo/internal/nvmsim"
	"potgo/internal/oid"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

// Systematic failure injection: a scripted transaction is cut short at
// every possible API-call boundary; after each simulated crash a fresh
// process attaches to the same NVM, recovers, and the data must be exactly
// the pre-transaction state (undo semantics: an uncommitted transaction
// never happened).
//
// This is the property the paper's failure-safety support (tx_begin /
// tx_add_range / tx_pmalloc / tx_pfree / tx_end, §2.1.4) exists to provide.

// txScript runs one scripted transaction against the heap, stopping after
// `steps` API calls (-1 = run to completion, including commit). It returns
// the number of steps available.
func txScript(h *Heap, p *Pool, objs [3]oid.OID, steps int) (int, error) {
	n := 0
	step := func(fn func() error) error {
		if steps >= 0 && n >= steps {
			return errStop
		}
		n++
		return fn()
	}
	deref := func(o oid.OID) Ref {
		r, err := h.Deref(o, isa.RZ)
		if err != nil {
			panic(err)
		}
		return r
	}
	var tx *Tx
	begin := func() (err error) {
		tx, err = h.Begin(p)
		return err
	}
	err := func() error {
		if err := step(begin); err != nil {
			return err
		}
		if err := step(func() error { return tx.AddRange(objs[0], 16) }); err != nil {
			return err
		}
		if err := step(func() error { return deref(objs[0]).Store64(0, 1111, isa.RZ) }); err != nil {
			return err
		}
		if err := step(func() error { return tx.AddRange(objs[1], 16) }); err != nil {
			return err
		}
		if err := step(func() error { return deref(objs[1]).Store64(8, 2222, isa.RZ) }); err != nil {
			return err
		}
		if err := step(func() error {
			_, err := tx.Alloc(p, 64)
			return err
		}); err != nil {
			return err
		}
		if err := step(func() error { return tx.Free(objs[2]) }); err != nil {
			return err
		}
		if err := step(func() error { return deref(objs[0]).Store64(8, 3333, isa.RZ) }); err != nil {
			return err
		}
		if err := step(func() error { return tx.Commit() }); err != nil {
			return err
		}
		return nil
	}()
	if err == errStop {
		err = nil
	}
	return n, err
}

var errStop = fmt.Errorf("crash point reached")

func freshHeap(t *testing.T, as *vm.AddressSpace, store *Store) *Heap {
	t.Helper()
	h, err := NewHeap(as, store, emit.New(trace.Discard{}, emit.Opt), nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCrashAtEveryStep(t *testing.T) {
	// Discover the number of steps with a dry run.
	as := vm.NewAddressSpace(500)
	store := NewStore()
	h := freshHeap(t, as, store)
	p, err := h.Create("cp", 256*1024)
	if err != nil {
		t.Fatal(err)
	}
	var objs [3]oid.OID
	for i := range objs {
		if objs[i], err = h.Alloc(p, 16); err != nil {
			t.Fatal(err)
		}
	}
	total, err := txScript(h, p, objs, -1)
	if err != nil {
		t.Fatal(err)
	}
	if total < 8 {
		t.Fatalf("script too short: %d steps", total)
	}

	// Now crash after every prefix of 0..total-1 steps (total = committed).
	for crashAt := 0; crashAt < total; crashAt++ {
		as := vm.NewAddressSpace(int64(1000 + crashAt))
		store := NewStore()
		h := freshHeap(t, as, store)
		p, err := h.Create("cp", 256*1024)
		if err != nil {
			t.Fatal(err)
		}
		var objs [3]oid.OID
		for i := range objs {
			if objs[i], err = h.Alloc(p, 16); err != nil {
				t.Fatal(err)
			}
		}
		// Committed pre-state.
		for i, o := range objs {
			ref, _ := h.Deref(o, isa.RZ)
			if err := ref.Store64(0, uint64(100+i), isa.RZ); err != nil {
				t.Fatal(err)
			}
			if err := ref.Store64(8, uint64(200+i), isa.RZ); err != nil {
				t.Fatal(err)
			}
			if err := h.Persist(o, 16); err != nil {
				t.Fatal(err)
			}
		}
		// The setup phase is not under test: sync it wholesale so the
		// adversary only operates on the transaction's own stores.
		if err := h.SyncPool(p); err != nil {
			t.Fatal(err)
		}

		if _, err := txScript(h, p, objs, crashAt); err != nil {
			t.Fatalf("crash point %d: %v", crashAt, err)
		}
		if _, err := h.Crash(nvmsim.DropAllPolicy()); err != nil {
			t.Fatal(err)
		}

		// A fresh process recovers.
		h2 := freshHeap(t, as, store)
		p2, err := h2.Open("cp")
		if err != nil {
			t.Fatal(err)
		}
		if err := h2.Recover(p2); err != nil {
			t.Fatalf("crash point %d: recover: %v", crashAt, err)
		}
		// The uncommitted transaction must have fully vanished.
		for i, o := range objs {
			ref, err := h2.Deref(o, isa.RZ)
			if err != nil {
				t.Fatal(err)
			}
			w0, _ := ref.Load64(0)
			w8, _ := ref.Load64(8)
			if w0.V != uint64(100+i) || w8.V != uint64(200+i) {
				t.Fatalf("crash point %d: object %d = (%d,%d), want (%d,%d)",
					crashAt, i, w0.V, w8.V, 100+i, 200+i)
			}
		}
		if h2.NeedsRecovery(p2) {
			t.Fatalf("crash point %d: pool still dirty after recovery", crashAt)
		}
	}
}

// freeScript is the recFree-focused script: a transaction whose only
// effect is tx_pfree of the victim. Steps: Begin, Free, Commit.
func freeScript(h *Heap, p *Pool, victim oid.OID, steps int) (int, error) {
	n := 0
	step := func(fn func() error) error {
		if steps >= 0 && n >= steps {
			return errStop
		}
		n++
		return fn()
	}
	var tx *Tx
	begin := func() (err error) {
		tx, err = h.Begin(p)
		return err
	}
	err := func() error {
		if err := step(begin); err != nil {
			return err
		}
		if err := step(func() error { return tx.Free(victim) }); err != nil {
			return err
		}
		return step(func() error { return tx.Commit() })
	}()
	if err == errStop {
		err = nil
	}
	return n, err
}

// freeWorld builds a heap with a victim object holding known contents.
func freeWorld(t *testing.T, seed int64) (*vm.AddressSpace, *Store, *Heap, *Pool, oid.OID) {
	t.Helper()
	as := vm.NewAddressSpace(seed)
	store := NewStore()
	h := freshHeap(t, as, store)
	p, err := h.Create("cp", 256*1024)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := h.Alloc(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := h.Deref(victim, isa.RZ)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Store64(0, 0xDEAD, isa.RZ); err != nil {
		t.Fatal(err)
	}
	if err := ref.Store64(8, 0xBEEF, isa.RZ); err != nil {
		t.Fatal(err)
	}
	if err := h.Persist(victim, 16); err != nil {
		t.Fatal(err)
	}
	// Make the setup durable; only the scripted transaction's stores are
	// exposed to the crash adversary.
	if err := h.SyncPool(p); err != nil {
		t.Fatal(err)
	}
	return as, store, h, p, victim
}

// checkVictimAlive asserts the free was NOT applied: contents intact (the
// free-list threading would have overwritten the payload) and the block is
// not handed out again by a same-class allocation.
func checkVictimAlive(t *testing.T, label string, h *Heap, p *Pool, victim oid.OID) {
	t.Helper()
	ref, err := h.Deref(victim, isa.RZ)
	if err != nil {
		t.Fatalf("%s: deref victim: %v", label, err)
	}
	w0, _ := ref.Load64(0)
	w8, _ := ref.Load64(8)
	if w0.V != 0xDEAD || w8.V != 0xBEEF {
		t.Fatalf("%s: victim contents = (%#x,%#x), want (0xdead,0xbeef)", label, w0.V, w8.V)
	}
	o, err := h.Alloc(p, 16)
	if err != nil {
		t.Fatalf("%s: alloc: %v", label, err)
	}
	if o == victim {
		t.Fatalf("%s: free was applied: allocator handed the victim back", label)
	}
}

// TestFreeCrashMatrix crashes the free-only transaction at every API-call
// boundary (tx_pfree is write-ahead: the record is logged during the
// transaction, the block only hits the free list at commit, §2.1.4):
//
//	crash after Begin, after Free     → free not applied, victim intact
//	run through Commit, then crash    → free applied, block reusable
func TestFreeCrashMatrix(t *testing.T) {
	const total = 3 // Begin, Free, Commit
	for crashAt := 0; crashAt <= total; crashAt++ {
		label := fmt.Sprintf("crash point %d", crashAt)
		as, store, h, p, victim := freeWorld(t, int64(3000+crashAt))
		if n, err := freeScript(h, p, victim, crashAt); err != nil {
			t.Fatalf("%s: %v", label, err)
		} else if crashAt == total && n != total {
			t.Fatalf("%s: script has %d steps, want %d", label, n, total)
		}
		if _, err := h.Crash(nvmsim.DropAllPolicy()); err != nil {
			t.Fatal(err)
		}

		h2 := freshHeap(t, as, store)
		p2, err := h2.Open("cp")
		if err != nil {
			t.Fatal(err)
		}
		if err := h2.Recover(p2); err != nil {
			t.Fatalf("%s: recover: %v", label, err)
		}
		if h2.NeedsRecovery(p2) {
			t.Fatalf("%s: pool still dirty after recovery", label)
		}
		if crashAt < total {
			// Uncommitted: the free intent must have vanished with the
			// transaction.
			checkVictimAlive(t, label, h2, p2, victim)
		} else {
			// Committed: the free must be durable — the block comes back.
			o, err := h2.Alloc(p2, 16)
			if err != nil {
				t.Fatalf("%s: alloc: %v", label, err)
			}
			if o != victim {
				t.Fatalf("%s: committed free not applied: alloc = %v, want %v", label, o, victim)
			}
		}
	}
}

// TestFreeIntentDroppedOnAbort aborts the free-only transaction (no crash)
// and checks the victim survives, then frees it for real to prove the
// block was still accounted as allocated.
func TestFreeIntentDroppedOnAbort(t *testing.T) {
	_, _, h, p, victim := freeWorld(t, 4000)
	tx, err := h.Begin(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Free(victim); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	checkVictimAlive(t, "abort", h, p, victim)
	// The victim is still a live allocation: a real free recycles it.
	if err := h.Free(victim); err != nil {
		t.Fatalf("free after abort: %v", err)
	}
	o, err := h.Alloc(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if o != victim {
		t.Fatalf("free-list head = %v, want the freed victim %v", o, victim)
	}
}

func TestCommittedTransactionSurvivesCrash(t *testing.T) {
	as := vm.NewAddressSpace(77)
	store := NewStore()
	h := freshHeap(t, as, store)
	p, err := h.Create("cp", 256*1024)
	if err != nil {
		t.Fatal(err)
	}
	var objs [3]oid.OID
	for i := range objs {
		if objs[i], err = h.Alloc(p, 16); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.SyncPool(p); err != nil {
		t.Fatal(err)
	}
	if _, err := txScript(h, p, objs, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Crash(nvmsim.DropAllPolicy()); err != nil {
		t.Fatal(err)
	}
	h2 := freshHeap(t, as, store)
	p2, err := h2.Open("cp")
	if err != nil {
		t.Fatal(err)
	}
	if h2.NeedsRecovery(p2) {
		t.Fatal("committed transaction must leave a clean log")
	}
	ref, _ := h2.Deref(objs[0], isa.RZ)
	w0, _ := ref.Load64(0)
	w8, _ := ref.Load64(8)
	if w0.V != 1111 || w8.V != 3333 {
		t.Fatalf("committed values lost: (%d,%d)", w0.V, w8.V)
	}
	// The committed tx_pfree of objs[2] really freed it: the block is
	// reusable by a fresh allocation of the same class.
	o, err := h2.Alloc(p2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if o != objs[2] {
		t.Fatalf("committed free not applied: alloc = %v, want %v", o, objs[2])
	}
}

// TestCrashAtEveryEvent is the instruction-granular strengthening of
// TestCrashAtEveryStep: instead of cutting the scripted transaction at API
// boundaries, the persistence domain is armed to crash just before every
// single persistent store / CLWB / SFENCE the script issues, under both the
// drop-all and torn-line adversaries. After recovery the world must be
// exactly the pre-transaction state or exactly the committed state — never a
// mixture — with a walkable allocator and a clean log.
func TestCrashAtEveryEvent(t *testing.T) {
	build := func(seed int64) (*vm.AddressSpace, *Store, *Heap, *Pool, [3]oid.OID) {
		as := vm.NewAddressSpace(seed)
		store := NewStore()
		h := freshHeap(t, as, store)
		p, err := h.Create("cp", 256*1024)
		if err != nil {
			t.Fatal(err)
		}
		var objs [3]oid.OID
		for i := range objs {
			if objs[i], err = h.Alloc(p, 16); err != nil {
				t.Fatal(err)
			}
			ref, _ := h.Deref(objs[i], isa.RZ)
			if err := ref.Store64(0, uint64(100+i), isa.RZ); err != nil {
				t.Fatal(err)
			}
			if err := ref.Store64(8, uint64(200+i), isa.RZ); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.SyncPool(p); err != nil {
			t.Fatal(err)
		}
		return as, store, h, p, objs
	}

	// Dry run sizes the event span of the full script.
	_, _, h, p, objs := build(7000)
	base := h.NV.Events()
	if _, err := txScript(h, p, objs, -1); err != nil {
		t.Fatal(err)
	}
	span := h.NV.Events() - base
	if span < 20 {
		t.Fatalf("script spans only %d events; expected instruction granularity", span)
	}

	policies := []func(e uint64) nvmsim.Policy{
		func(uint64) nvmsim.Policy { return nvmsim.DropAllPolicy() },
		func(e uint64) nvmsim.Policy { return nvmsim.TornPolicy(e) },
	}
	for e := base; e < base+span; e++ {
		for pi, mk := range policies {
			as, store, h, p, objs := build(7000)
			crashed := func() (crashed bool) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := nvmsim.AsCrashSignal(r); !ok {
							panic(r)
						}
						crashed = true
					}
				}()
				h.NV.Arm(e)
				defer h.NV.Disarm()
				if _, err := txScript(h, p, objs, -1); err != nil {
					t.Fatal(err)
				}
				return false
			}()
			if !crashed {
				t.Fatalf("event %d never reached (span %d)", e, span)
			}
			if _, err := h.Crash(mk(e)); err != nil {
				t.Fatal(err)
			}

			h2 := freshHeap(t, as, store)
			p2, err := h2.Open("cp")
			if err != nil {
				t.Fatal(err)
			}
			if err := h2.Recover(p2); err != nil {
				t.Fatalf("event %d policy %d: recover: %v", e, pi, err)
			}
			if h2.NeedsRecovery(p2) {
				t.Fatalf("event %d policy %d: pool still dirty after recovery", e, pi)
			}
			if err := h2.CheckPool(p2); err != nil {
				t.Fatalf("event %d policy %d: %v", e, pi, err)
			}
			read := func(o oid.OID, off uint32) uint64 {
				ref, err := h2.Deref(o, isa.RZ)
				if err != nil {
					t.Fatal(err)
				}
				w, _ := ref.Load64(off)
				return w.V
			}
			switch w := read(objs[0], 0); w {
			case 100: // undone: the transaction never happened
				want := [3][2]uint64{{100, 200}, {101, 201}, {102, 202}}
				for i, o := range objs {
					if g0, g8 := read(o, 0), read(o, 8); g0 != want[i][0] || g8 != want[i][1] {
						t.Fatalf("event %d policy %d: undone obj %d = (%d,%d), want (%d,%d)",
							e, pi, i, g0, g8, want[i][0], want[i][1])
					}
				}
			case 1111: // committed: every effect landed, including the free
				if g8 := read(objs[0], 8); g8 != 3333 {
					t.Fatalf("event %d policy %d: committed objs[0] = (1111,%d)", e, pi, g8)
				}
				if g0, g8 := read(objs[1], 0), read(objs[1], 8); g0 != 101 || g8 != 2222 {
					t.Fatalf("event %d policy %d: committed objs[1] = (%d,%d)", e, pi, g0, g8)
				}
				o, err := h2.Alloc(p2, 16)
				if err != nil {
					t.Fatal(err)
				}
				if o != objs[2] {
					t.Fatalf("event %d policy %d: committed free not applied (alloc %v, want %v)",
						e, pi, o, objs[2])
				}
			default:
				t.Fatalf("event %d policy %d: objs[0] word 0 = %d: neither pre nor post state", e, pi, w)
			}
		}
	}
}
