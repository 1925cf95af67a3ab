// kvstore: a durable key-value store built on the persistent B+ tree with
// undo-log transactions — the kind of application the paper's interface
// targets.
//
// Every Put/Delete runs inside a failure-safe transaction; the store
// survives close/reopen, and the demo at the end aborts a batch mid-flight
// to show the undo log restoring the previous state.
package main

import (
	"fmt"
	"os"

	"potgo/internal/emit"
	"potgo/internal/oid"
	"potgo/internal/pds"
	"potgo/internal/pmem"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

// KVStore is a persistent map[uint64]uint64 with transactional updates.
// It is its own pds.Ctx: the shared transactional core plus placement in
// the store's one pool.
type KVStore struct {
	pds.TxCtx
	pool *pmem.Pool
	tree *pds.BPlus
}

// Open creates or reopens the named store.
func Open(heap *pmem.Heap, name string) (*KVStore, error) {
	var pool *pmem.Pool
	var err error
	if heap.Store.Exists(name) {
		pool, err = heap.Open(name)
	} else {
		pool, err = heap.Create(name, 8<<20)
	}
	if err != nil {
		return nil, err
	}
	root, err := heap.Root(pool, 64)
	if err != nil {
		return nil, err
	}
	return &KVStore{
		TxCtx: pds.NewTxCtx(heap),
		pool:  pool,
		tree:  pds.NewBPlus(pds.NewCell(heap, root)),
	}, nil
}

// Alloc implements pds.Ctx: every node lives in the store's pool.
func (s *KVStore) Alloc(_ uint64, size uint32) (oid.OID, error) {
	return s.AllocIn(s.pool, size)
}

// Put inserts or updates a key durably.
func (s *KVStore) Put(k, v uint64) error {
	return s.inTx(func() error { return s.put(k, v) })
}

func (s *KVStore) put(k, v uint64) error {
	if ok, err := s.tree.Update(s, k, v); err != nil || ok {
		return err
	}
	return s.tree.Insert(s, k, v)
}

// Get reads a key.
func (s *KVStore) Get(k uint64) (uint64, bool, error) {
	return s.tree.Find(s, k)
}

// Delete removes a key durably, reporting whether it existed.
func (s *KVStore) Delete(k uint64) (removed bool, err error) {
	err = s.inTx(func() error {
		removed, err = s.tree.Remove(s, k)
		return err
	})
	return removed, err
}

// PutBatch writes several pairs in ONE transaction: all or nothing. With
// failAfter >= 0 it fails (and rolls back) after that many writes.
func (s *KVStore) PutBatch(pairs map[uint64]uint64, failAfter int) error {
	return s.inTx(func() error {
		n := 0
		for k, v := range pairs {
			if n == failAfter {
				return fmt.Errorf("batch aborted after %d writes (as requested)", n)
			}
			if err := s.put(k, v); err != nil {
				return err
			}
			n++
		}
		return nil
	})
}

// Len counts keys.
func (s *KVStore) Len() (int, error) { return s.tree.CheckInvariants(s) }

// Close persists and unmaps the store.
func (s *KVStore) Close() error { return s.Heap().Close(s.pool) }

// inTx runs fn in one transaction, committing if it succeeds and rolling
// everything back if it fails.
func (s *KVStore) inTx(fn func() error) error {
	if err := s.Begin(s.pool); err != nil {
		return err
	}
	if err := fn(); err != nil {
		// The rollback may move the root back from under the tree's
		// volatile root cache.
		s.tree.DropCache()
		if aerr := s.Abort(); aerr != nil {
			return fmt.Errorf("%w (abort also failed: %v)", err, aerr)
		}
		return err
	}
	return s.Commit()
}

var _ pds.Ctx = (*KVStore)(nil)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kvstore:", err)
		os.Exit(1)
	}
}

func run() error {
	as := vm.NewAddressSpace(99)
	heap, err := pmem.NewHeap(as, pmem.NewStore(), emit.New(trace.Discard{}, emit.Opt), nil)
	if err != nil {
		return err
	}

	kv, err := Open(heap, "demo")
	if err != nil {
		return err
	}
	for k := uint64(1); k <= 100; k++ {
		if err := kv.Put(k, k*k); err != nil {
			return err
		}
	}
	v, ok, err := kv.Get(12)
	if err != nil || !ok {
		return fmt.Errorf("get(12): %v", err)
	}
	fmt.Printf("put 100 keys; get(12) = %d\n", v)

	if removed, err := kv.Delete(12); err != nil || !removed {
		return fmt.Errorf("delete(12): %v", err)
	}
	if _, ok, _ := kv.Get(12); ok {
		return fmt.Errorf("key 12 survived delete")
	}
	fmt.Println("delete(12): ok")

	// Durable across close/reopen.
	if err := kv.Close(); err != nil {
		return err
	}
	kv, err = Open(heap, "demo")
	if err != nil {
		return err
	}
	n, err := kv.Len()
	if err != nil {
		return err
	}
	fmt.Printf("reopened store holds %d keys\n", n)

	// All-or-nothing batch: the abort restores the previous contents.
	before, _ := kv.Len()
	err = kv.PutBatch(map[uint64]uint64{500: 1, 501: 2, 502: 3}, 2)
	fmt.Printf("batch with injected failure: %v\n", err)
	after, err := kv.Len()
	if err != nil {
		return err
	}
	if before != after {
		return fmt.Errorf("abort leaked state: %d -> %d keys", before, after)
	}
	fmt.Printf("store unchanged after aborted batch (%d keys): atomicity holds\n", after)

	// And a successful batch commits everything.
	if err := kv.PutBatch(map[uint64]uint64{500: 1, 501: 2, 502: 3}, -1); err != nil {
		return err
	}
	final, _ := kv.Len()
	fmt.Printf("committed batch: %d keys\n", final)
	return nil
}
