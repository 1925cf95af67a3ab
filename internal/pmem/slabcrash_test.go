package pmem

import (
	"fmt"
	"testing"

	"potgo/internal/isa"
	"potgo/internal/nvmsim"
	"potgo/internal/oid"
	"potgo/internal/vm"
)

// Slab-focused crash coverage: the tx sweep in crashpoint_test.go exercises
// the undo log over a fixed pair of objects, but the size-class slab
// allocator has its own persistent metadata (span headers, occupancy
// bitmaps, class chain words) with its own crash windows — above all the
// span-carve ("grow") path, which publishes a fresh span header and links
// it into the class chain, and the free path, which must not leak a slot to
// the free stack before its transaction commits. slabScript drives exactly
// those paths — first-touch carves of three different classes inside one
// transaction, transactional frees, and a post-free reuse allocation — and
// TestCrashAtEveryEventSlab cuts it before every persistent event.

const (
	slabCounterOff = 0  // committed-transaction counter
	slabSlotsOff   = 8  // four OID slots
	slabRootSize   = 40 // counter + 4 slots
)

// slabWorld builds a pool whose root is a durable slot table, returning the
// baseline live-slot count so outcome checks can reason in slab terms.
func slabWorld(t *testing.T, seed int64) (*vm.AddressSpace, *Store, *Heap, *Pool, oid.OID, int) {
	t.Helper()
	as := vm.NewAddressSpace(seed)
	store := NewStore()
	h := freshHeap(t, as, store)
	p, err := h.CreateSized("slab", 1<<20, 128*1024)
	if err != nil {
		t.Fatal(err)
	}
	root, err := h.Root(p, slabRootSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SyncPool(p); err != nil {
		t.Fatal(err)
	}
	_, _, live := h.SlabStats(p)
	return as, store, h, p, root, live
}

// slabScript runs three transactions against the slot table:
//
//	tx1 (counter 1): first-touch allocations in classes 16, 128 and 1024 —
//	  each carves a fresh span inside the transaction — with canaries.
//	tx2 (counter 2): transactional frees of the 128- and 1024-class blocks.
//	tx3 (counter 3): a reuse allocation in class 128 (pops the freed slot).
//
// Canaries are derived from the committed counter so the verifier can tell
// exactly which prefix of transactions survived a crash.
func slabScript(h *Heap, p *Pool, root oid.OID) error {
	rootRef, err := h.Deref(root, isa.RZ)
	if err != nil {
		return err
	}
	readSlot := func(i int) oid.OID {
		w, err := rootRef.Load64(uint32(slabSlotsOff + 8*i))
		if err != nil {
			panic(err)
		}
		return oid.OID(w.V)
	}
	var tx *Tx
	allocInto := func(slot int, size uint32) error {
		o, err := tx.Alloc(p, size)
		if err != nil {
			return err
		}
		blk, err := h.Deref(o, isa.RZ)
		if err != nil {
			return err
		}
		if err := blk.Store64(0, slabCanary(slot), isa.RZ); err != nil {
			return err
		}
		return rootRef.Store64(uint32(slabSlotsOff+8*slot), uint64(o), isa.RZ)
	}

	// tx1: three first-touch classes, three span carves under one log.
	tx, err = h.Begin(p)
	if err != nil {
		return err
	}
	if err := tx.AddRange(root, slabRootSize); err != nil {
		return err
	}
	if err := allocInto(0, 16); err != nil {
		return err
	}
	if err := allocInto(1, 100); err != nil { // class 128
		return err
	}
	if err := allocInto(2, 600); err != nil { // class 1024
		return err
	}
	if err := rootRef.Store64(slabCounterOff, 1, isa.RZ); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}

	// tx2: free the two larger blocks.
	tx, err = h.Begin(p)
	if err != nil {
		return err
	}
	if err := tx.AddRange(root, slabRootSize); err != nil {
		return err
	}
	for _, slot := range []int{1, 2} {
		if err := tx.Free(readSlot(slot)); err != nil {
			return err
		}
		if err := rootRef.Store64(uint32(slabSlotsOff+8*slot), 0, isa.RZ); err != nil {
			return err
		}
	}
	if err := rootRef.Store64(slabCounterOff, 2, isa.RZ); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}

	// tx3: reuse the freed 128-class slot.
	tx, err = h.Begin(p)
	if err != nil {
		return err
	}
	if err := tx.AddRange(root, slabRootSize); err != nil {
		return err
	}
	if err := allocInto(3, 100); err != nil {
		return err
	}
	if err := rootRef.Store64(slabCounterOff, 3, isa.RZ); err != nil {
		return err
	}
	return tx.Commit()
}

func slabCanary(slot int) uint64 { return 0xca11a6<<16 | uint64(slot+1) }

// slabLiveDelta is how many live slab slots each committed prefix adds over
// the baseline: +3 after tx1, +1 after tx2 (two frees), +2 after tx3.
var slabLiveDelta = [4]int{0, 3, 1, 2}

// checkSlabOutcome asserts the recovered pool is exactly the state after
// some committed prefix of slabScript: counter, slot table, canaries and
// the slab's live-slot census must all agree.
func checkSlabOutcome(label string, h *Heap, p *Pool, root oid.OID, baseLive int) error {
	rootRef, err := h.Deref(root, isa.RZ)
	if err != nil {
		return err
	}
	w, err := rootRef.Load64(slabCounterOff)
	if err != nil {
		return err
	}
	counter := w.V
	if counter > 3 {
		return fmt.Errorf("%s: counter %d out of range", label, counter)
	}
	// Which slots hold live canaried blocks after each committed prefix.
	wantLive := map[uint64][]int{0: {}, 1: {0, 1, 2}, 2: {0}, 3: {0, 3}}[counter]
	occupied := map[int]bool{}
	for _, s := range wantLive {
		occupied[s] = true
	}
	for slot := 0; slot < 4; slot++ {
		sw, err := rootRef.Load64(uint32(slabSlotsOff + 8*slot))
		if err != nil {
			return err
		}
		if !occupied[slot] {
			if sw.V != 0 {
				return fmt.Errorf("%s: counter %d but slot %d = %#x, want empty", label, counter, slot, sw.V)
			}
			continue
		}
		if sw.V == 0 {
			return fmt.Errorf("%s: counter %d but slot %d empty", label, counter, slot)
		}
		blk, err := h.Deref(oid.OID(sw.V), isa.RZ)
		if err != nil {
			return fmt.Errorf("%s: slot %d: %w", label, slot, err)
		}
		cw, err := blk.Load64(0)
		if err != nil {
			return err
		}
		if cw.V != slabCanary(slot) {
			return fmt.Errorf("%s: slot %d canary %#x, want %#x", label, slot, cw.V, slabCanary(slot))
		}
	}
	// The slab census must match the committed prefix exactly: a leaked
	// uncommitted allocation or a lost committed free shows up here even
	// when every canary looks right.
	_, _, live := h.SlabStats(p)
	if want := baseLive + slabLiveDelta[counter]; live != want {
		return fmt.Errorf("%s: counter %d: %d live slab slots, want %d", label, counter, live, want)
	}
	return nil
}

// TestCrashAtEveryEventSlab arms the persistence domain to crash before
// every persistent store / CLWB / SFENCE slabScript produces, under both
// the drop-all and torn-line adversaries, and requires recovery to land on
// an exact committed prefix — span carves, bitmap flips and class-chain
// links included.
func TestCrashAtEveryEventSlab(t *testing.T) {
	// Dry run sizes the event span.
	_, _, h, p, root, baseLive := slabWorld(t, 91)
	e0 := h.NV.Events()
	if err := slabScript(h, p, root); err != nil {
		t.Fatal(err)
	}
	e1 := h.NV.Events()
	if e1-e0 < 30 {
		t.Fatalf("suspiciously short event span %d..%d", e0, e1)
	}

	for _, kind := range []nvmsim.Kind{nvmsim.DropAll, nvmsim.Torn} {
		for e := e0; e < e1; e++ {
			label := fmt.Sprintf("%v@%d", kind, e)
			as, store, h, p, root, _ := slabWorld(t, 91)
			pol := nvmsim.DropAllPolicy()
			if kind == nvmsim.Torn {
				pol = nvmsim.TornPolicy(e)
			}
			crashed, err := runArmed(h, e, func() error { return slabScript(h, p, root) })
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !crashed {
				t.Fatalf("%s: armed event never reached (span drifted?)", label)
			}
			rep, err := h.Crash(pol)
			if err != nil {
				t.Fatal(err)
			}

			h2 := freshHeap(t, as, store)
			p2, err := h2.Open("slab")
			if err != nil {
				t.Fatal(err)
			}
			if err := h2.Recover(p2); err != nil {
				t.Fatalf("%s (kept %s): recover: %v", label, rep.KeptString(), err)
			}
			if err := h2.CheckPool(p2); err != nil {
				t.Fatalf("%s (kept %s): %v", label, rep.KeptString(), err)
			}
			if err := checkSlabOutcome(label, h2, p2, root, baseLive); err != nil {
				t.Errorf("%v (kept %s)", err, rep.KeptString())
			}
		}
	}
}

// FuzzSlabClasses churns allocations and frees across every size class
// (including large bump allocations past the biggest class) from a
// fuzzer-chosen op string, holding a canary in each live block. Any slab
// bookkeeping bug — overlapping slots, a reused live slot, a span carve
// that tramples a neighbor — corrupts some canary or fails the structural
// pool check.
func FuzzSlabClasses(f *testing.F) {
	f.Add([]byte{0x00, 0x21, 0x42, 0x63, 0x84, 0xa5, 0x01, 0x22})
	f.Add([]byte{0x10, 0x30, 0x50, 0x70, 0x90, 0x11, 0x31, 0x51})
	f.Add([]byte{0xf0, 0xf2, 0xf4, 0xf1, 0xf3, 0xf5, 0x08, 0x09})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		as := vm.NewAddressSpace(7)
		h, err := NewHeapDiscard(as, NewStore())
		if err != nil {
			t.Fatal(err)
		}
		p, err := h.CreateSized("fz", 1<<22, 64*1024)
		if err != nil {
			t.Fatal(err)
		}
		type block struct {
			o      oid.OID
			canary uint64
		}
		var live []block
		canary := uint64(0x5eed)
		for i, b := range ops {
			if b&1 == 0 || len(live) == 0 {
				// Sizes sweep every class boundary: 1..4096 hits all nine
				// slab classes on both sides, sel 15 goes to the bump path.
				sel := uint32(b >> 4)
				size := uint32(1) << (sel % 13)
				if sel == 15 {
					size = 5000 // large: beyond the biggest class
				}
				o, err := h.Alloc(p, size)
				if err != nil {
					t.Fatalf("op %d: alloc %d: %v", i, size, err)
				}
				canary = canary*0x9e3779b97f4a7c15 + 1
				ref, err := h.Deref(o, isa.RZ)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.Store64(0, canary, isa.RZ); err != nil {
					t.Fatal(err)
				}
				live = append(live, block{o, canary})
			} else {
				idx := int(b>>1) % len(live)
				if err := h.Free(live[idx].o); err != nil {
					t.Fatalf("op %d: free: %v", i, err)
				}
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			// Every surviving canary must still be intact after every op.
			for _, blk := range live {
				ref, err := h.Deref(blk.o, isa.RZ)
				if err != nil {
					t.Fatal(err)
				}
				w, err := ref.Load64(0)
				if err != nil {
					t.Fatal(err)
				}
				if w.V != blk.canary {
					t.Fatalf("op %d: block %v canary %#x, want %#x", i, blk.o, w.V, blk.canary)
				}
			}
		}
		if err := h.CheckPool(p); err != nil {
			t.Fatal(err)
		}
	})
}
