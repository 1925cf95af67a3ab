// crashrecovery: demonstrates the write-ahead undo log surviving a crash.
//
// A "bank" keeps two account balances in a pool and transfers money between
// them transactionally. The process crashes in the middle of a transfer —
// after the debit has hit persistent memory but before the credit — and a
// fresh process attaches to the same NVM, detects the interrupted
// transaction, and rolls it back, restoring the invariant that the total
// balance never changes.
package main

import (
	"fmt"
	"os"

	"potgo/internal/emit"
	"potgo/internal/isa"
	"potgo/internal/nvmsim"
	"potgo/internal/oid"
	"potgo/internal/pmem"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

const (
	accountA = 0 // offsets within the root object
	accountB = 8
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crashrecovery:", err)
		os.Exit(1)
	}
}

func run() error {
	// The "NVM DIMMs": the pool store survives process crashes.
	as := vm.NewAddressSpace(7)
	store := pmem.NewStore()

	// --- process 1: set up and crash mid-transfer ---
	heap, err := pmem.NewHeap(as, store, emit.New(trace.Discard{}, emit.Opt), nil)
	if err != nil {
		return err
	}
	pool, err := heap.Create("bank", 1<<20)
	if err != nil {
		return err
	}
	root, err := heap.Root(pool, 64)
	if err != nil {
		return err
	}
	if err := setBalance(heap, root, accountA, 900); err != nil {
		return err
	}
	if err := setBalance(heap, root, accountB, 100); err != nil {
		return err
	}
	if err := heap.Persist(root, 16); err != nil {
		return err
	}
	a, b, err := balances(heap, root)
	if err != nil {
		return err
	}
	fmt.Printf("initial balances: A=%d B=%d (total %d)\n", a, b, a+b)

	// Transfer 250 from A to B — but crash between debit and credit.
	tx, err := heap.Begin(pool)
	if err != nil {
		return err
	}
	if err := tx.AddRange(root, 16); err != nil {
		return err
	}
	if err := setBalance(heap, root, accountA, a-250); err != nil {
		return err
	}
	fmt.Println("debited A by 250 ... crashing before crediting B")
	if _, err := heap.Crash(nvmsim.DropAllPolicy()); err != nil {
		return err
	}

	// --- process 2: attach to the same NVM and recover ---
	heap2, err := pmem.NewHeap(as, store, emit.New(trace.Discard{}, emit.Opt), nil)
	if err != nil {
		return err
	}
	pool2, err := heap2.Open("bank")
	if err != nil {
		return err
	}
	if !heap2.NeedsRecovery(pool2) {
		return fmt.Errorf("interrupted transaction not detected")
	}
	fmt.Println("reopened pool: interrupted transaction detected, recovering...")
	if err := heap2.Recover(pool2); err != nil {
		return err
	}
	root2, err := heap2.Root(pool2, 64)
	if err != nil {
		return err
	}
	a2, b2, err := balances(heap2, root2)
	if err != nil {
		return err
	}
	fmt.Printf("recovered balances: A=%d B=%d (total %d)\n", a2, b2, a2+b2)
	if a2+b2 != a+b || a2 != a || b2 != b {
		return fmt.Errorf("recovery failed to restore the snapshot")
	}
	fmt.Println("invariant holds: the half-done transfer was rolled back")

	// And a completed transfer commits cleanly.
	tx2, err := heap2.Begin(pool2)
	if err != nil {
		return err
	}
	if err := tx2.AddRange(root2, 16); err != nil {
		return err
	}
	if err := setBalance(heap2, root2, accountA, a2-250); err != nil {
		return err
	}
	if err := setBalance(heap2, root2, accountB, b2+250); err != nil {
		return err
	}
	if err := tx2.Commit(); err != nil {
		return err
	}
	a3, b3, err := balances(heap2, root2)
	if err != nil {
		return err
	}
	fmt.Printf("after committed transfer: A=%d B=%d (total %d)\n", a3, b3, a3+b3)
	return nil
}

func setBalance(h *pmem.Heap, root oid.OID, off uint32, v uint64) error {
	ref, err := h.Deref(root, isa.RZ)
	if err != nil {
		return err
	}
	return ref.Store64(off, v, isa.RZ)
}

func balances(h *pmem.Heap, root oid.OID) (uint64, uint64, error) {
	ref, err := h.Deref(root, isa.RZ)
	if err != nil {
		return 0, 0, err
	}
	a, err := ref.Load64(accountA)
	if err != nil {
		return 0, 0, err
	}
	b, err := ref.Load64(accountB)
	if err != nil {
		return 0, 0, err
	}
	return a.V, b.V, nil
}
