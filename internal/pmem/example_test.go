package pmem_test

import (
	"fmt"

	"potgo/internal/emit"
	"potgo/internal/isa"
	"potgo/internal/nvmsim"
	"potgo/internal/pmem"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

// Example shows the basic lifecycle of the paper's Table 1 API: create a
// pool, allocate a persistent object, write it durably, and read it back
// through its ObjectID after the pool has been closed and remapped.
func Example() {
	as := vm.NewAddressSpace(1)
	heap, _ := pmem.NewHeap(as, pmem.NewStore(), emit.New(trace.Discard{}, emit.Opt), nil)

	pool, _ := heap.Create("example", 1<<20) // pool_create
	obj, _ := heap.Alloc(pool, 16)           // pmalloc
	ref, _ := heap.Deref(obj, isa.RZ)        // dereference the ObjectID
	_ = ref.Store64(0, 42, isa.RZ)           // write a field
	_ = heap.Persist(obj, 16)                // persist (CLWB + SFENCE)
	_ = heap.Close(pool)                     // pool_close
	pool, _ = heap.Open("example")           // pool_open (new address!)
	ref, _ = heap.Deref(obj, isa.RZ)         // the same ObjectID still works
	w, _ := ref.Load64(0)
	fmt.Println("value:", w.V, "— pool id stable:", pool.ID() == obj.Pool())
	// Output:
	// value: 42 — pool id stable: true
}

// ExampleHeap_Begin shows a failure-safe update: the undo log restores
// the snapshot when the transaction aborts.
func ExampleHeap_Begin() {
	as := vm.NewAddressSpace(2)
	heap, _ := pmem.NewHeap(as, pmem.NewStore(), emit.New(trace.Discard{}, emit.Opt), nil)
	pool, _ := heap.Create("tx", 1<<20)
	obj, _ := heap.Alloc(pool, 8)
	ref, _ := heap.Deref(obj, isa.RZ)
	_ = ref.Store64(0, 100, isa.RZ)

	tx, _ := heap.Begin(pool) // tx_begin
	_ = tx.AddRange(obj, 8)   // tx_add_range: snapshot before modifying
	_ = ref.Store64(0, 999, isa.RZ)
	_ = tx.Abort() // roll back

	w, _ := ref.Load64(0)
	fmt.Println("after abort:", w.V)

	tx, _ = heap.Begin(pool)
	_ = tx.AddRange(obj, 8)
	_ = ref.Store64(0, 999, isa.RZ)
	_ = tx.Commit() // tx_end: commit durably
	w, _ = ref.Load64(0)
	fmt.Println("after commit:", w.V)
	// Output:
	// after abort: 100
	// after commit: 999
}

// ExampleHeap_Recover shows crash recovery: a transaction interrupted by a
// crash is rolled back when the pool is reopened.
func ExampleHeap_Recover() {
	as := vm.NewAddressSpace(3)
	store := pmem.NewStore()
	heap, _ := pmem.NewHeap(as, store, emit.New(trace.Discard{}, emit.Opt), nil)
	pool, _ := heap.Create("crash", 1<<20)
	obj, _ := heap.Alloc(pool, 8)
	ref, _ := heap.Deref(obj, isa.RZ)
	_ = ref.Store64(0, 7, isa.RZ)
	_ = heap.Persist(obj, 8)

	tx, _ := heap.Begin(pool)
	_ = tx.AddRange(obj, 8)
	_ = ref.Store64(0, 8, isa.RZ)
	_, _ = heap.Crash(nvmsim.DropAllPolicy()) // power loss mid-transaction

	heap2, _ := pmem.NewHeap(as, store, emit.New(trace.Discard{}, emit.Opt), nil)
	pool2, _ := heap2.Open("crash")
	fmt.Println("needs recovery:", heap2.NeedsRecovery(pool2))
	_ = heap2.Recover(pool2)
	ref2, _ := heap2.Deref(obj, isa.RZ)
	w, _ := ref2.Load64(0)
	fmt.Println("recovered value:", w.V)
	// Output:
	// needs recovery: true
	// recovered value: 7
}
