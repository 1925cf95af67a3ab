package pds

import (
	"bytes"

	"sort"
	"testing"

	"potgo/internal/emit"
	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pmem"
	"potgo/internal/randtest"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

// testCtx is a single-pool (or round-robin multi-pool) Ctx over the
// shared transactional core.
type testCtx struct {
	TxCtx
	pools []*pmem.Pool
	next  int
}

func (c *testCtx) Alloc(_ uint64, size uint32) (oid.OID, error) {
	p := c.pools[c.next%len(c.pools)]
	c.next++
	return c.AllocIn(p, size)
}

func (c *testCtx) begin(t *testing.T) {
	t.Helper()
	if err := c.Begin(c.pools[0]); err != nil {
		t.Fatal(err)
	}
}

func (c *testCtx) end(t *testing.T) {
	t.Helper()
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

func newCtx(t *testing.T, npools int) (*testCtx, Cell) {
	t.Helper()
	as := vm.NewAddressSpace(31)
	em := emit.New(trace.Discard{}, emit.Opt)
	h, err := pmem.NewHeap(as, pmem.NewStore(), em, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := &testCtx{TxCtx: NewTxCtx(h)}
	for i := 0; i < npools; i++ {
		p, err := h.CreateSized(string(rune('A'+i)), 8<<20, 256*1024)
		if err != nil {
			t.Fatal(err)
		}
		c.pools = append(c.pools, p)
	}
	root, err := h.Root(c.pools[0], 64)
	if err != nil {
		t.Fatal(err)
	}
	return c, NewCell(h, root)
}

func TestListBasics(t *testing.T) {
	c, cell := newCtx(t, 1)
	l := NewList(cell)
	keys := []uint64{5, 3, 9, 1}
	for _, k := range keys {
		if err := l.Insert(c, k); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := l.Len(c); n != 4 {
		t.Errorf("len = %d", n)
	}
	// Head insertion: reverse order.
	got, _ := l.Keys(c)
	want := []uint64{1, 9, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v", got)
		}
	}
	for _, k := range keys {
		o, err := l.Find(c, k)
		if err != nil || o.IsNull() {
			t.Errorf("find %d failed", k)
		}
	}
	if o, _ := l.Find(c, 42); !o.IsNull() {
		t.Error("absent key found")
	}
	// Remove middle, head, tail.
	for _, k := range []uint64{9, 1, 5} {
		ok, err := l.Remove(c, k)
		if err != nil || !ok {
			t.Fatalf("remove %d: %t, %v", k, ok, err)
		}
	}
	if ok, _ := l.Remove(c, 42); ok {
		t.Error("removed absent key")
	}
	if n, _ := l.Len(c); n != 1 {
		t.Errorf("len after removals = %d", n)
	}
}

func TestListAgainstReference(t *testing.T) {
	c, cell := newCtx(t, 1)
	l := NewList(cell)
	rng := randtest.New(t, 2)
	ref := map[uint64]bool{}
	for i := 0; i < 400; i++ {
		k := uint64(rng.Intn(120))
		if ref[k] {
			ok, err := l.Remove(c, k)
			if err != nil || !ok {
				t.Fatalf("remove %d: %v", k, err)
			}
			delete(ref, k)
		} else {
			if err := l.Insert(c, k); err != nil {
				t.Fatal(err)
			}
			ref[k] = true
		}
	}
	if n, _ := l.Len(c); n != len(ref) {
		t.Errorf("len = %d, want %d", n, len(ref))
	}
	for k := range ref {
		if o, _ := l.Find(c, k); o.IsNull() {
			t.Errorf("key %d missing", k)
		}
	}
}

func TestListSpansPools(t *testing.T) {
	c, cell := newCtx(t, 4)
	l := NewList(cell)
	for k := uint64(0); k < 40; k++ {
		if err := l.Insert(c, k); err != nil {
			t.Fatal(err)
		}
	}
	// Nodes really are spread across pools.
	poolsSeen := map[oid.PoolID]bool{}
	cur, _ := l.head.Get()
	for !cur.OID().IsNull() {
		poolsSeen[cur.OID().Pool()] = true
		ref, _ := c.h.Deref(cur.OID(), isa.RZ)
		cur, _ = ref.Load64(listNextOff)
	}
	if len(poolsSeen) != 4 {
		t.Errorf("list spans %d pools, want 4", len(poolsSeen))
	}
	for k := uint64(0); k < 40; k++ {
		if o, _ := l.Find(c, k); o.IsNull() {
			t.Errorf("cross-pool find %d failed", k)
		}
	}
}

func TestBSTAgainstReference(t *testing.T) {
	c, cell := newCtx(t, 1)
	bst := NewBST(cell)
	rng := randtest.New(t, 3)
	ref := map[uint64]bool{}
	for i := 0; i < 1500; i++ {
		k := uint64(rng.Intn(500))
		if ref[k] {
			ok, err := bst.Remove(c, k)
			if err != nil || !ok {
				t.Fatalf("remove %d: %t %v", k, ok, err)
			}
			delete(ref, k)
		} else {
			if err := bst.Insert(c, k); err != nil {
				t.Fatal(err)
			}
			ref[k] = true
		}
	}
	inorder, err := bst.InOrder(c)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedKeys(ref)
	if !equalU64(inorder, want) {
		t.Errorf("inorder mismatch: %d vs %d keys", len(inorder), len(want))
	}
	for k := range ref {
		if o, _ := bst.Find(c, k); o.IsNull() {
			t.Errorf("key %d missing", k)
		}
	}
	if o, _ := bst.Find(c, 99999); !o.IsNull() {
		t.Error("phantom key")
	}
}

func TestRBTInvariantsUnderChurn(t *testing.T) {
	c, cell := newCtx(t, 1)
	rbt := NewRBT(cell)
	rng := randtest.New(t, 4)
	ref := map[uint64]bool{}
	for i := 0; i < 1200; i++ {
		k := uint64(rng.Intn(300))
		if ref[k] {
			ok, err := rbt.Remove(c, k)
			if err != nil || !ok {
				t.Fatalf("op %d: remove %d: %t %v", i, k, ok, err)
			}
			delete(ref, k)
		} else {
			if err := rbt.Insert(c, k); err != nil {
				t.Fatalf("op %d: insert %d: %v", i, k, err)
			}
			ref[k] = true
		}
		if i%50 == 0 {
			if _, err := rbt.CheckInvariants(c); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if _, err := rbt.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
	inorder, _ := rbt.InOrder(c)
	if !equalU64(inorder, sortedKeys(ref)) {
		t.Error("inorder mismatch")
	}
	for k := range ref {
		if o, _ := rbt.Find(c, k); o.IsNull() {
			t.Errorf("key %d missing", k)
		}
	}
}

func TestRBTDrainCompletely(t *testing.T) {
	c, cell := newCtx(t, 1)
	rbt := NewRBT(cell)
	var keys []uint64
	for k := uint64(0); k < 200; k++ {
		keys = append(keys, k*7%200)
	}
	for _, k := range keys {
		if err := rbt.Insert(c, k); err != nil {
			t.Fatal(err)
		}
	}
	rng := randtest.New(t, 5)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i, k := range keys {
		ok, err := rbt.Remove(c, k)
		if err != nil || !ok {
			t.Fatalf("drain %d: remove %d: %t %v", i, k, ok, err)
		}
		if i%20 == 0 {
			if _, err := rbt.CheckInvariants(c); err != nil {
				t.Fatalf("drain %d: %v", i, err)
			}
		}
	}
	if got, _ := rbt.InOrder(c); len(got) != 0 {
		t.Errorf("tree not empty: %d keys", len(got))
	}
}

func TestBTreeInvariantsAndFind(t *testing.T) {
	c, cell := newCtx(t, 1)
	bt := NewBTree(cell)
	rng := randtest.New(t, 6)
	ref := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(10000))
		found, err := bt.Find(c, k)
		if err != nil {
			t.Fatal(err)
		}
		if found != ref[k] {
			t.Fatalf("find %d = %t, want %t", k, found, ref[k])
		}
		if !found {
			if err := bt.Insert(c, k); err != nil {
				t.Fatal(err)
			}
			ref[k] = true
		}
	}
	n, err := bt.CheckInvariants(c)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ref) {
		t.Errorf("tree has %d keys, want %d", n, len(ref))
	}
	if err := bt.Insert(c, firstKey(ref)); err == nil {
		t.Error("duplicate insert must fail")
	}
}

func TestBPlusAgainstReference(t *testing.T) {
	c, cell := newCtx(t, 1)
	bp := NewBPlus(cell)
	rng := randtest.New(t, 7)
	ref := map[uint64]uint64{}
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(800))
		if v, ok := ref[k]; ok {
			if rng.Intn(2) == 0 {
				got, found, err := bp.Find(c, k)
				if err != nil || !found || got != v {
					t.Fatalf("find %d = %d,%t,%v want %d", k, got, found, err, v)
				}
				ok2, err := bp.Remove(c, k)
				if err != nil || !ok2 {
					t.Fatalf("remove %d: %t %v", k, ok2, err)
				}
				delete(ref, k)
			} else {
				nv := rng.Uint64()
				ok2, err := bp.Update(c, k, nv)
				if err != nil || !ok2 {
					t.Fatalf("update %d: %v", k, err)
				}
				ref[k] = nv
			}
		} else {
			v := rng.Uint64()
			if err := bp.Insert(c, k, v); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
			ref[k] = v
		}
		if i%100 == 0 {
			if n, err := bp.CheckInvariants(c); err != nil || n != len(ref) {
				t.Fatalf("op %d: invariants n=%d want %d err=%v", i, n, len(ref), err)
			}
		}
	}
	for k, v := range ref {
		got, found, err := bp.Find(c, k)
		if err != nil || !found || got != v {
			t.Fatalf("final find %d", k)
		}
	}
	if _, found, _ := bp.Find(c, 999999); found {
		t.Error("phantom key")
	}
	if ok, _ := bp.Remove(c, 999999); ok {
		t.Error("removed phantom")
	}
	if ok, _ := bp.Update(c, 999999, 1); ok {
		t.Error("updated phantom")
	}
}

func TestBPlusDrain(t *testing.T) {
	c, cell := newCtx(t, 1)
	bp := NewBPlus(cell)
	const n = 500
	for k := uint64(0); k < n; k++ {
		if err := bp.Insert(c, k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	rng := randtest.New(t, 8)
	order := rng.Perm(n)
	for i, ki := range order {
		ok, err := bp.Remove(c, uint64(ki))
		if err != nil || !ok {
			t.Fatalf("drain %d: remove %d: %t %v", i, ki, ok, err)
		}
		if i%50 == 0 {
			if _, err := bp.CheckInvariants(c); err != nil {
				t.Fatalf("drain %d: %v", i, err)
			}
		}
	}
	if n, _ := bp.CheckInvariants(c); n != 0 {
		t.Errorf("tree not empty: %d", n)
	}
	// And it is reusable after being emptied.
	if err := bp.Insert(c, 1, 2); err != nil {
		t.Fatal(err)
	}
}

func TestBPlusScan(t *testing.T) {
	c, cell := newCtx(t, 1)
	bp := NewBPlus(cell)
	for k := uint64(0); k < 100; k += 2 {
		if err := bp.Insert(c, k, k+1000); err != nil {
			t.Fatal(err)
		}
	}
	got, err := bp.Scan(c, 31, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{32, 34, 36, 38, 40}
	if len(got) != 5 {
		t.Fatalf("scan returned %d", len(got))
	}
	for i, kv := range got {
		if kv.Key != want[i] || kv.Val != want[i]+1000 {
			t.Errorf("scan[%d] = %+v", i, kv)
		}
	}
	// Scan from beyond the end.
	if got, _ := bp.Scan(c, 1000, 5); len(got) != 0 {
		t.Errorf("tail scan returned %d", len(got))
	}
	// Scan everything.
	if got, _ := bp.Scan(c, 0, 1000); len(got) != 50 {
		t.Errorf("full scan returned %d", len(got))
	}
}

func TestStringArraySwap(t *testing.T) {
	c, cell := newCtx(t, 1)
	sa := NewStringArray(cell, 64, StringBytes)
	if err := sa.Init(c); err != nil {
		t.Fatal(err)
	}
	ref := make([][]byte, 64)
	for i := range ref {
		var err error
		if ref[i], err = sa.Get(c, i); err != nil {
			t.Fatal(err)
		}
	}
	rng := randtest.New(t, 9)
	for n := 0; n < 300; n++ {
		i, j := rng.Intn(64), rng.Intn(64)
		if err := sa.Swap(c, i, j); err != nil {
			t.Fatal(err)
		}
		ref[i], ref[j] = ref[j], ref[i]
	}
	for i := range ref {
		got, err := sa.Get(c, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref[i]) {
			t.Fatalf("string %d diverged", i)
		}
	}
	if _, err := sa.Get(c, 99); err == nil {
		t.Error("out-of-range get must fail")
	}
	if err := sa.Swap(c, 0, 99); err == nil {
		t.Error("out-of-range swap must fail")
	}
	if sa.N() != 64 {
		t.Error("N")
	}
}

// TestTransactionalAbortRestoresStructures is the crown-jewel failure-safety
// test: run a structure mutation inside a transaction, abort it, and verify
// the structure is bit-identical to its pre-transaction state — proving the
// structures Touch (undo-log) every word they modify.
func TestTransactionalAbortRestoresStructures(t *testing.T) {
	c, cell := newCtx(t, 1)
	rbt := NewRBT(cell)
	// Build a committed tree.
	for k := uint64(0); k < 100; k++ {
		c.begin(t)
		if err := rbt.Insert(c, k*17%100); err != nil {
			t.Fatal(err)
		}
		c.end(t)
	}
	before, _ := rbt.InOrder(c)

	// Abort an insert.
	c.begin(t)
	if err := rbt.Insert(c, 1000); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	after, _ := rbt.InOrder(c)
	if !equalU64(before, after) {
		t.Fatal("aborted insert left residue")
	}
	if _, err := rbt.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}

	// Abort a remove (which rebalances aggressively).
	c.begin(t)
	ok, err := rbt.Remove(c, before[10])
	if err != nil || !ok {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	after, _ = rbt.InOrder(c)
	if !equalU64(before, after) {
		t.Fatal("aborted remove left residue")
	}
	if _, err := rbt.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionalAbortRestoresBPlus(t *testing.T) {
	c, cell := newCtx(t, 1)
	bp := NewBPlus(cell)
	for k := uint64(0); k < 200; k++ {
		c.begin(t)
		if err := bp.Insert(c, k, k); err != nil {
			t.Fatal(err)
		}
		c.end(t)
	}
	snapshot := func() []KV {
		kvs, err := bp.Scan(c, 0, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return kvs
	}
	before := snapshot()

	// Abort a remove that triggers merges.
	c.begin(t)
	if ok, err := bp.Remove(c, 100); err != nil || !ok {
		t.Fatal(err)
	}
	if ok, err := bp.Remove(c, 101); err != nil || !ok {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	after := snapshot()
	if len(before) != len(after) {
		t.Fatalf("aborted removes changed size: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("kv %d diverged after abort", i)
		}
	}
	if _, err := bp.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
}

func sortedKeys(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func firstKey(m map[uint64]bool) uint64 {
	for k := range m {
		return k
	}
	return 0
}

func TestBTreeRemoveAgainstReference(t *testing.T) {
	c, cell := newCtx(t, 1)
	bt := NewBTree(cell)
	rng := randtest.New(t, 17)
	ref := map[uint64]bool{}
	for i := 0; i < 2500; i++ {
		k := uint64(rng.Intn(600))
		if ref[k] {
			ok, err := bt.Remove(c, k)
			if err != nil || !ok {
				t.Fatalf("op %d: remove %d: %t %v", i, k, ok, err)
			}
			delete(ref, k)
		} else {
			if err := bt.Insert(c, k); err != nil {
				t.Fatalf("op %d: insert %d: %v", i, k, err)
			}
			ref[k] = true
		}
		if i%100 == 0 {
			if n, err := bt.CheckInvariants(c); err != nil || n != len(ref) {
				t.Fatalf("op %d: n=%d want %d err=%v", i, n, len(ref), err)
			}
		}
	}
	for k := range ref {
		found, err := bt.Find(c, k)
		if err != nil || !found {
			t.Fatalf("final find %d failed", k)
		}
	}
	if ok, _ := bt.Remove(c, 99999); ok {
		t.Error("removed phantom key")
	}
}

func TestBTreeDrainCompletely(t *testing.T) {
	c, cell := newCtx(t, 1)
	bt := NewBTree(cell)
	const n = 400
	for k := uint64(0); k < n; k++ {
		if err := bt.Insert(c, k*13%n); err != nil {
			t.Fatal(err)
		}
	}
	rng := randtest.New(t, 18)
	order := rng.Perm(n)
	for i, ki := range order {
		k := uint64(ki) * 13 % n
		ok, err := bt.Remove(c, k)
		if err != nil || !ok {
			t.Fatalf("drain %d: remove %d: %t %v", i, k, ok, err)
		}
		if i%40 == 0 {
			if _, err := bt.CheckInvariants(c); err != nil {
				t.Fatalf("drain %d: %v", i, err)
			}
		}
	}
	if n, _ := bt.CheckInvariants(c); n != 0 {
		t.Errorf("tree not empty: %d keys", n)
	}
	// Reusable after drain.
	if err := bt.Insert(c, 7); err != nil {
		t.Fatal(err)
	}
	if found, _ := bt.Find(c, 7); !found {
		t.Error("insert after drain lost")
	}
}

func TestBTreeRemoveFromEmptyTree(t *testing.T) {
	c, cell := newCtx(t, 1)
	bt := NewBTree(cell)
	if ok, err := bt.Remove(c, 5); err != nil || ok {
		t.Errorf("remove from empty tree: %t, %v", ok, err)
	}
}

func TestBTreeTransactionalRemoveAborts(t *testing.T) {
	c, cell := newCtx(t, 1)
	bt := NewBTree(cell)
	for k := uint64(0); k < 120; k++ {
		c.begin(t)
		if err := bt.Insert(c, k); err != nil {
			t.Fatal(err)
		}
		c.end(t)
	}
	nBefore, err := bt.CheckInvariants(c)
	if err != nil {
		t.Fatal(err)
	}
	c.begin(t)
	for k := uint64(30); k < 40; k++ {
		if ok, err := bt.Remove(c, k); err != nil || !ok {
			t.Fatal(err)
		}
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	nAfter, err := bt.CheckInvariants(c)
	if err != nil {
		t.Fatalf("invariants after abort: %v", err)
	}
	if nAfter != nBefore {
		t.Errorf("abort leaked: %d -> %d keys", nBefore, nAfter)
	}
}

// The B+ tree's scratch arena is sized by the deepest structural change, not
// by the tree: whole-tree walks (CheckInvariants, VisitNodes, Scan) keep
// their nodes to themselves, and once the arena is warm Insert and Remove
// decode into it without allocating.
func TestBPlusScratchArena(t *testing.T) {
	c, cell := newCtx(t, 1)
	bp := NewBPlus(cell)
	const n = 2000
	for k := uint64(0); k < n; k++ {
		if err := bp.Insert(c, k*2, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bp.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
	if err := bp.VisitNodes(c, func(oid.OID) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if kvs, err := bp.Scan(c, 0, n); err != nil || len(kvs) != n {
		t.Fatalf("scan: %d pairs, %v", len(kvs), err)
	}
	for k := uint64(0); k < n; k += 3 {
		if ok, err := bp.Remove(c, k*2); err != nil || !ok {
			t.Fatalf("remove %d: %t %v", k*2, ok, err)
		}
	}
	// A root-to-leaf path plus at most three sibling reads per level, in a
	// tree of some nine hundred nodes.
	if got := len(bp.sc.nodes); got > 32 {
		t.Errorf("scratch arena holds %d nodes for a %d-key tree", got, n)
	}

	// Structural churn in steady state: odd keys go in and come out again.
	k := uint64(1)
	churn := func() {
		if err := bp.Insert(c, k, k); err != nil {
			t.Fatal(err)
		}
		if ok, err := bp.Remove(c, k); err != nil || !ok {
			t.Fatalf("remove %d: %t %v", k, ok, err)
		}
		k = (k + 202) % (2 * n)
	}
	for i := 0; i < 50; i++ {
		churn()
	}
	if avg := testing.AllocsPerRun(200, churn); avg != 0 {
		t.Errorf("insert+remove: %.2f allocs/op, want 0", avg)
	}
	if _, err := bp.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
}
