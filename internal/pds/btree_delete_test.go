package pds

import (
	"testing"

	"potgo/internal/randtest"
)

// buildBTree inserts keys in order and returns the tree.
func buildBTree(t *testing.T, c *testCtx, cell Cell, keys []uint64) *BTree {
	t.Helper()
	bt := NewBTree(cell)
	for _, k := range keys {
		if err := bt.Insert(c, k); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	return bt
}

// checkBTree verifies invariants and the exact membership of want.
func checkBTree(t *testing.T, c *testCtx, bt *BTree, want map[uint64]bool) {
	t.Helper()
	n, err := bt.CheckInvariants(c)
	if err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if n != len(want) {
		t.Fatalf("tree holds %d keys, want %d", n, len(want))
	}
	for k := range want {
		if ok, err := bt.Find(c, k); err != nil || !ok {
			t.Fatalf("key %d missing after deletions (err %v)", k, err)
		}
	}
}

// seq returns [1, n].
func seq(n uint64) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i) + 1
	}
	return s
}

// TestBTreeRemoveEdgeCases drives each rebalancing path of the order-7
// deletion (btMaxKeys = 6, btMinKeys = 2) through a deterministically
// constructed shape. Inserting 1..7 in order splits exactly once, leaving
// root [4] over leaves [1 2 3] and [5 6 7]; every case below steers from
// there (or from a deeper sequential build) into one specific edge.
func TestBTreeRemoveEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		insert  []uint64
		remove  []uint64
		missing []uint64 // removes that must report absent, applied last
	}{
		{
			// Deleting the only key frees the root leaf: the anchor goes
			// null and a later insert must rebuild from scratch.
			name:   "root leaf collapse to empty",
			insert: []uint64{42},
			remove: []uint64{42},
		},
		{
			// 3 then 7 bring both leaves to the minimum; deleting the
			// separator 4 finds no slack on either side, merges [1 2]+4+[5 6]
			// and leaves the root an empty internal node, which Remove
			// replaces with the merged child (height shrinks by one).
			name:   "root collapse internal to child",
			insert: seq(7),
			remove: []uint64{3, 7, 4},
		},
		{
			// Removing 5 descends into the right leaf [5 6], already at the
			// minimum, while its left sibling [1 2 3] has slack: the
			// separator 4 rotates down-right and 3 rotates up.
			name:   "borrow from left sibling",
			insert: seq(7),
			remove: []uint64{7, 5},
		},
		{
			// Mirror image: after 3, the left leaf [1 2] is minimal and the
			// right sibling [5 6 7] has slack, so removing 1 rotates the
			// separator 4 down-left and 5 up.
			name:   "borrow from right sibling",
			insert: seq(7),
			remove: []uint64{3, 1},
		},
		{
			// An internal-key delete with a slack-left child replaces the
			// key with its in-subtree predecessor (4 -> 3).
			name:   "internal key predecessor swap",
			insert: seq(7),
			remove: []uint64{7, 4},
		},
		{
			// With the left child minimal and the right child slack, the
			// internal key takes its successor instead (4 -> 5).
			name:   "internal key successor swap",
			insert: seq(7),
			remove: []uint64{3, 4},
		},
		{
			// A three-level tree (sequential 1..31 splits twice) drained
			// from the left edge: every few deletions the leftmost leaf
			// empties below minimum with minimal siblings, cascading merges
			// up through the internal level until the height collapses.
			name:   "merge cascade over three levels",
			insert: seq(31),
			remove: seq(31),
		},
		{
			// Absent keys — below, between and above the stored range —
			// must report false without disturbing the tree.
			name:    "absent keys are no-ops",
			insert:  seq(7),
			remove:  []uint64{6},
			missing: []uint64{0, 4<<60 + 1, 100},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, cell := newCtx(t, 1)
			bt := buildBTree(t, c, cell, tc.insert)
			want := make(map[uint64]bool, len(tc.insert))
			for _, k := range tc.insert {
				want[k] = true
			}
			for _, k := range tc.remove {
				removed, err := bt.Remove(c, k)
				if err != nil {
					t.Fatalf("remove %d: %v", k, err)
				}
				if !removed {
					t.Fatalf("remove %d: reported absent", k)
				}
				delete(want, k)
				// Invariants must hold after EVERY deletion, not just at
				// the end — a transiently underfull or uneven tree is the
				// bug these cases hunt.
				checkBTree(t, c, bt, want)
			}
			for _, k := range tc.missing {
				removed, err := bt.Remove(c, k)
				if err != nil {
					t.Fatalf("remove absent %d: %v", k, err)
				}
				if removed {
					t.Fatalf("remove absent %d: reported present", k)
				}
				checkBTree(t, c, bt, want)
			}
			// The tree must stay fully usable: reinsert what was removed.
			for _, k := range tc.remove {
				if err := bt.Insert(c, k); err != nil {
					t.Fatalf("reinsert %d: %v", k, err)
				}
				want[k] = true
			}
			checkBTree(t, c, bt, want)
		})
	}
}

// TestBTreeRemoveRandomChurn cross-checks deletion against a map model
// under random insert/remove churn, verifying invariants continuously.
func TestBTreeRemoveRandomChurn(t *testing.T) {
	rng := randtest.New(t, 99)
	c, cell := newCtx(t, 1)
	bt := NewBTree(cell)
	model := make(map[uint64]bool)
	const keyRange = 200
	for i := 0; i < 3000; i++ {
		key := uint64(rng.Intn(keyRange)) + 1
		if rng.Intn(2) == 0 && !model[key] {
			if err := bt.Insert(c, key); err != nil {
				t.Fatalf("op %d: insert %d: %v", i, key, err)
			}
			model[key] = true
		} else {
			removed, err := bt.Remove(c, key)
			if err != nil {
				t.Fatalf("op %d: remove %d: %v", i, key, err)
			}
			if removed != model[key] {
				t.Fatalf("op %d: remove %d returned %v, model says %v", i, key, removed, model[key])
			}
			delete(model, key)
		}
		if i%100 == 0 {
			if n, err := bt.CheckInvariants(c); err != nil || n != len(model) {
				t.Fatalf("op %d: invariants n=%d err=%v, model %d", i, n, err, len(model))
			}
		}
	}
	n, err := bt.CheckInvariants(c)
	if err != nil || n != len(model) {
		t.Fatalf("final: n=%d err=%v, model %d", n, err, len(model))
	}
	for k := range model {
		if ok, err := bt.Find(c, k); err != nil || !ok {
			t.Fatalf("final: key %d missing (err %v)", k, err)
		}
	}
}
