package pds

import (
	"testing"

	"potgo/internal/emit"
	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pmem"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

func newTxCtxWorld(t *testing.T) (*TxCtx, *pmem.Pool, oid.OID) {
	t.Helper()
	h, err := pmem.NewHeap(vm.NewAddressSpace(41), pmem.NewStore(), emit.New(trace.Discard{}, emit.Opt), nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.CreateSized("txctx", 1<<20, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	o, err := h.Alloc(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := NewTxCtx(h)
	return &c, p, o
}

func store64(t *testing.T, h *pmem.Heap, o oid.OID, v uint64) {
	t.Helper()
	ref, err := h.Deref(o, isa.RZ)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Store64(0, v, isa.RZ); err != nil {
		t.Fatal(err)
	}
}

func load64(t *testing.T, h *pmem.Heap, o oid.OID) uint64 {
	t.Helper()
	ref, err := h.Deref(o, isa.RZ)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ref.Load64(0)
	if err != nil {
		t.Fatal(err)
	}
	return w.V
}

// touchRecords touches o and returns how many undo records that issued.
func touchRecords(t *testing.T, c *TxCtx, o oid.OID) uint64 {
	t.Helper()
	before := c.Heap().Metrics.UndoRecords
	if err := c.Touch(o, 16); err != nil {
		t.Fatal(err)
	}
	return c.Heap().Metrics.UndoRecords - before
}

// TestTxCtxTouchOncePerTransaction: a second Touch of an object in the
// same transaction logs nothing, and the next transaction, whether opened
// by Begin or bound by Bind, snapshots it again.
func TestTxCtxTouchOncePerTransaction(t *testing.T) {
	c, p, o := newTxCtxWorld(t)
	if err := c.Begin(p); err != nil {
		t.Fatal(err)
	}
	if n := touchRecords(t, c, o); n != 1 {
		t.Fatalf("first touch: %d undo records, want 1", n)
	}
	if n := touchRecords(t, c, o); n != 0 {
		t.Fatalf("second touch in the same transaction: %d undo records, want 0", n)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := c.Begin(p); err != nil {
		t.Fatal(err)
	}
	if n := touchRecords(t, c, o); n != 1 {
		t.Fatalf("after Begin: %d undo records, want 1", n)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	tx, err := c.Heap().Begin(p)
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(tx)
	if n := touchRecords(t, c, o); n != 1 {
		t.Fatalf("after Bind: %d undo records, want 1", n)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestTxCtxPlainWithoutTransaction: with no transaction bound AllocIn and
// Free are the heap's plain operations and Touch logs nothing.
func TestTxCtxPlainWithoutTransaction(t *testing.T) {
	c, p, o := newTxCtxWorld(t)
	h := c.Heap()
	m := h.Metrics
	if n := touchRecords(t, c, o); n != 0 {
		t.Fatalf("touch without a transaction: %d undo records, want 0", n)
	}
	n, err := c.AllocIn(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Free(n); err != nil {
		t.Fatal(err)
	}
	if h.Metrics.TxBegins != m.TxBegins || h.Metrics.UndoRecords != m.UndoRecords {
		t.Fatalf("plain AllocIn/Free opened a transaction or logged: %+v -> %+v", m, h.Metrics)
	}
	// The plain free took effect at once: the block is the next allocation.
	again, err := h.Alloc(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	if again != n {
		t.Fatalf("plain Free did not recycle the block: got %v, want %v", again, n)
	}
}

// TestTxCtxAbortRestores: Abort rolls a touched object back to its
// pre-image and undoes the transaction's allocation, then unbinds.
func TestTxCtxAbortRestores(t *testing.T) {
	c, p, o := newTxCtxWorld(t)
	h := c.Heap()
	store64(t, h, o, 7)
	if err := c.Begin(p); err != nil {
		t.Fatal(err)
	}
	if err := c.Touch(o, 16); err != nil {
		t.Fatal(err)
	}
	store64(t, h, o, 8)
	n, err := c.AllocIn(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if v := load64(t, h, o); v != 7 {
		t.Fatalf("after abort: %d, want the pre-image 7", v)
	}
	if n2, err := h.Alloc(p, 32); err != nil || n2 != n {
		t.Fatalf("aborted allocation not undone: next block %v (%v), want %v", n2, err, n)
	}
	if k := touchRecords(t, c, o); k != 0 {
		t.Fatalf("touch after abort: %d undo records, want 0 (unbound)", k)
	}
}
