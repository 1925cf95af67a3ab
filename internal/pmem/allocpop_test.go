package pmem

import (
	"testing"

	"potgo/internal/isa"
	"potgo/internal/nvmsim"
	"potgo/internal/vm"
)

// TestTxAllocPopDurableBeforeReuse pins the free-list reuse hazard the
// crash-injection engine found: a transactional allocation that pops a block
// from a free list hands the caller memory whose first payload word IS the
// free list's next pointer. The caller then persists new contents over it
// (persist-before-publish, invariant I2). If the head advance were still
// volatile at that point, a crash would revert the durable head onto a block
// whose next word is now object data — and recovery's membership walk, seeing
// the block at the head, would conclude "already threaded" and leave the
// corrupt chain in place. Tx.Alloc therefore persists the pop before
// returning; this test crashes in exactly that window and checks the free
// list survives.
func TestTxAllocPopDurableBeforeReuse(t *testing.T) {
	as, store, h, p := buildAllocPopWorld(t)

	// A durably freed block: committed tx_pfree threads it on its class
	// list with crash-safe ordering.
	victim, err := h.Alloc(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := h.Begin(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Free(victim); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := h.SyncPool(p); err != nil {
		t.Fatal(err)
	}

	// A new transaction reuses it and persists object data over the payload
	// — including the word that held the free list's next pointer.
	tx, err = h.Begin(p)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := tx.Alloc(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if reused != victim {
		t.Fatalf("expected the freed block back, got %v (victim %v)", reused, victim)
	}
	ref, err := h.Deref(reused, isa.RZ)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Store64(0, 0x1a, isa.RZ); err != nil { // a plausible key, not a block offset
		t.Fatal(err)
	}
	if err := h.Persist(reused, 64); err != nil {
		t.Fatal(err)
	}

	// Power fails before commit; nothing volatile survives.
	if _, err := h.Crash(nvmsim.DropAllPolicy()); err != nil {
		t.Fatal(err)
	}

	h2 := freshHeap(t, as, store)
	p2, err := h2.Open("ap")
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Recover(p2); err != nil {
		t.Fatal(err)
	}
	if err := h2.CheckPool(p2); err != nil {
		t.Fatal(err)
	}
	// The undone allocation is free again and allocatable.
	back, err := h2.Alloc(p2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if back != victim {
		t.Fatalf("expected the undone block back on its free list, got %v (victim %v)", back, victim)
	}
	if err := h2.CheckPool(p2); err != nil {
		t.Fatal(err)
	}
}

// TestTxAllocPopCrashBetweenLogAndHeadPersist covers the other edge of the
// same window: the recAlloc record is durable but the head advance is not.
// Recovery's membership walk finds the block still on the list and must
// leave it exactly once — free, intact, allocatable.
func TestTxAllocPopCrashBetweenLogAndHeadPersist(t *testing.T) {
	as, store, h, p := buildAllocPopWorld(t)

	victim, err := h.Alloc(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := h.Begin(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Free(victim); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := h.SyncPool(p); err != nil {
		t.Fatal(err)
	}

	// Sweep every persistence event inside Begin+Tx.Alloc: each crash
	// point must recover to a pool where the victim is free exactly once.
	dry := func(h *Heap, p *Pool) error {
		tx, err := h.Begin(p)
		if err != nil {
			return err
		}
		_, err = tx.Alloc(p, 64)
		return err
	}
	base := h.NV.Events()
	if err := dry(h, p); err != nil {
		t.Fatal(err)
	}
	span := h.NV.Events() - base
	if span == 0 {
		t.Fatal("no persistence events in Tx.Alloc")
	}
	_ = as
	_ = store
	for e := base; e < base+span; e++ {
		as, store, h, p := buildAllocPopWorld(t)
		victim, err := h.Alloc(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := h.Begin(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Free(victim); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := h.SyncPool(p); err != nil {
			t.Fatal(err)
		}
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
			if err := dry(h, p); err != nil {
				t.Fatal(err)
			}
			return false
		}()
		if !crashed {
			continue
		}
		if _, err := h.Crash(nvmsim.DropAllPolicy()); err != nil {
			t.Fatal(err)
		}
		h2 := freshHeap(t, as, store)
		p2, err := h2.Open("ap")
		if err != nil {
			t.Fatal(err)
		}
		if err := h2.Recover(p2); err != nil {
			t.Fatalf("event %d: recover: %v", e, err)
		}
		if err := h2.CheckPool(p2); err != nil {
			t.Fatalf("event %d: %v", e, err)
		}
		back, err := h2.Alloc(p2, 64)
		if err != nil {
			t.Fatalf("event %d: realloc: %v", e, err)
		}
		if back != victim {
			t.Fatalf("event %d: expected %v back, got %v", e, victim, back)
		}
		if err := h2.CheckPool(p2); err != nil {
			t.Fatalf("event %d: after realloc: %v", e, err)
		}
	}
}

func buildAllocPopWorld(t *testing.T) (*vm.AddressSpace, *Store, *Heap, *Pool) {
	t.Helper()
	as := vm.NewAddressSpace(77)
	store := NewStore()
	h := freshHeap(t, as, store)
	p, err := h.Create("ap", 256*1024)
	if err != nil {
		t.Fatal(err)
	}
	return as, store, h, p
}
