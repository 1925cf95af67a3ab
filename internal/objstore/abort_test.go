package objstore

import (
	"fmt"
	"strings"
	"testing"
)

// TestKVAbortedRootMoveReprimes overflows a batch's undo log after the
// batch has split the tree roots, so the abort restores anchors the trees'
// volatile root caches no longer name. The store must serve the pre-batch
// state afterwards: every later Put, Get and Check walks from the restored
// root, not from a node the rollback freed. One shard takes Batch's
// bitmask path; 65 shards take the path for stores past the 64-bit mask.
func TestKVAbortedRootMoveReprimes(t *testing.T) {
	for _, tc := range []struct{ shards, ops int }{{1, 20000}, {65, 60000}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			kv := newKV(t, tc.shards)
			for k := uint64(0); k < uint64(tc.shards); k++ {
				if _, err := kv.Put(k, k); err != nil {
					t.Fatal(err)
				}
			}
			ops := make([]BatchOp, tc.ops)
			for i := range ops {
				k := uint64(tc.shards + i)
				ops[i] = BatchOp{Key: k, Val: k}
			}
			err := kv.Batch(ops)
			if err == nil || !strings.Contains(err.Error(), "full") {
				t.Fatalf("oversized batch: got %v, want an undo-log-full error", err)
			}
			if _, err := kv.Put(0, 100); err != nil {
				t.Fatalf("Put after aborted batch: %v", err)
			}
			n, err := kv.Check()
			if err != nil {
				t.Fatalf("Check after aborted batch: %v", err)
			}
			if n != tc.shards {
				t.Errorf("Check counts %d keys, want the %d from before the batch", n, tc.shards)
			}
			for k := uint64(0); k < uint64(tc.shards); k++ {
				want := k
				if k == 0 {
					want = 100
				}
				if v, ok, err := kv.Get(k); err != nil || !ok || v != want {
					t.Fatalf("Get(%d) = %d,%v,%v want %d,true,nil", k, v, ok, err, want)
				}
			}
			if _, ok, err := kv.Get(uint64(tc.shards)); err != nil || ok {
				t.Fatalf("Get of an aborted key: ok=%v err=%v", ok, err)
			}
		})
	}
}
