package main

import (
	"strings"
	"testing"

	"potgo/internal/emit"
	"potgo/internal/pmem"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

// TestPutBatchLogOverflowAborts overflows the pool's undo log with one
// batch. The failed batch must roll back, root splits included, and leave
// the store usable: not leave its transaction open so that every later
// write fails, nor the tree's root cache on a rolled-back node.
func TestPutBatchLogOverflowAborts(t *testing.T) {
	heap, err := pmem.NewHeap(vm.NewAddressSpace(99), pmem.NewStore(), emit.New(trace.Discard{}, emit.Opt), nil)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := Open(heap, "demo")
	if err != nil {
		t.Fatal(err)
	}
	pairs := make(map[uint64]uint64, 400)
	for k := uint64(1); k <= 400; k++ {
		pairs[k] = k * k
	}
	err = kv.PutBatch(pairs, -1)
	if err == nil || !strings.Contains(err.Error(), "undo log") {
		t.Fatalf("400-key batch: got %v, want an undo-log-full error", err)
	}
	if n, err := kv.Len(); err != nil || n != 0 {
		t.Fatalf("after the failed batch: %d keys, %v; want the empty store back", n, err)
	}
	if err := kv.Put(7, 49); err != nil {
		t.Fatalf("put after the failed batch: %v", err)
	}
	if v, ok, err := kv.Get(7); err != nil || !ok || v != 49 {
		t.Fatalf("get(7) = %d, %v, %v; want 49", v, ok, err)
	}
}
