package pds

import (
	"potgo/internal/randtest"
	"testing"

	"potgo/internal/emit"
	"potgo/internal/oid"
	"potgo/internal/pmem"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

// countingCtx is a single-pool Ctx over the shared transactional core
// that counts both Touch calls and the undo records they actually issue,
// per OID per transaction. The suite below drives every structure through
// transactional workloads and checks the invariant the undo log depends
// on: at most one snapshot per object per transaction (a second AddRange
// would burn log space and, worse, a snapshot taken after a first mutation
// would record the wrong pre-image if the dedup key were forgotten between
// operations).
type countingCtx struct {
	TxCtx
	t       *testing.T
	pool    *pmem.Pool
	calls   map[oid.OID]int // Touch calls this transaction
	issued  map[oid.OID]int // undo records issued this transaction
	dedupes int             // calls swallowed by dedup, across the test
}

func (c *countingCtx) Alloc(_ uint64, size uint32) (oid.OID, error) {
	return c.AllocIn(c.pool, size)
}

func (c *countingCtx) Touch(o oid.OID, size uint32) error {
	if c.tx == nil {
		return nil
	}
	c.calls[o]++
	before := c.h.Metrics.UndoRecords
	if err := c.TxCtx.Touch(o, size); err != nil {
		return err
	}
	if n := c.h.Metrics.UndoRecords - before; n > 0 {
		c.issued[o] += int(n)
	} else {
		c.dedupes++
	}
	return nil
}

func (c *countingCtx) begin() {
	c.t.Helper()
	c.calls = map[oid.OID]int{}
	c.issued = map[oid.OID]int{}
	if err := c.Begin(c.pool); err != nil {
		c.t.Fatal(err)
	}
}

// end commits and asserts the per-transaction snapshot invariant.
func (c *countingCtx) end() {
	c.t.Helper()
	if err := c.Commit(); err != nil {
		c.t.Fatal(err)
	}
	for o, n := range c.issued {
		if n > 1 {
			c.t.Fatalf("object %v snapshotted %d times in one transaction", o, n)
		}
		if c.calls[o] < n {
			c.t.Fatalf("object %v: %d snapshots for %d Touch calls", o, n, c.calls[o])
		}
	}
}

func newCountingCtx(t *testing.T) (*countingCtx, Cell) {
	t.Helper()
	as := vm.NewAddressSpace(31)
	em := emit.New(trace.Discard{}, emit.Opt)
	h, err := pmem.NewHeap(as, pmem.NewStore(), em, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.CreateSized("tc", 8<<20, 512*1024)
	if err != nil {
		t.Fatal(err)
	}
	root, err := h.Root(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	return &countingCtx{TxCtx: NewTxCtx(h), t: t, pool: p}, NewCell(h, root)
}

// TestTouchOncePerTransaction drives all five structures through
// per-operation transactions and checks that every object is snapshotted
// at most once per transaction, and that the structures do re-Touch (so
// the dedup contract is actually load-bearing, not vacuous).
func TestTouchOncePerTransaction(t *testing.T) {
	structures := []struct {
		name string
		run  func(c *countingCtx, cell Cell, keys []uint64)
	}{
		{"List", func(c *countingCtx, cell Cell, keys []uint64) {
			l := NewList(cell)
			for _, k := range keys {
				c.begin()
				if err := l.Insert(c, k); err != nil {
					t.Fatal(err)
				}
				c.end()
			}
			for _, k := range keys[:len(keys)/2] {
				c.begin()
				if _, err := l.Remove(c, k); err != nil {
					t.Fatal(err)
				}
				c.end()
			}
		}},
		{"BST", func(c *countingCtx, cell Cell, keys []uint64) {
			s := NewBST(cell)
			for _, k := range keys {
				c.begin()
				if err := s.Insert(c, k); err != nil {
					t.Fatal(err)
				}
				c.end()
			}
			for _, k := range keys[:len(keys)/2] {
				c.begin()
				if _, err := s.Remove(c, k); err != nil {
					t.Fatal(err)
				}
				c.end()
			}
		}},
		{"RBT", func(c *countingCtx, cell Cell, keys []uint64) {
			s := NewRBT(cell)
			for _, k := range keys {
				c.begin()
				if err := s.Insert(c, k); err != nil {
					t.Fatal(err)
				}
				c.end()
			}
			for _, k := range keys[:len(keys)/2] {
				c.begin()
				if _, err := s.Remove(c, k); err != nil {
					t.Fatal(err)
				}
				c.end()
			}
		}},
		{"BTree", func(c *countingCtx, cell Cell, keys []uint64) {
			s := NewBTree(cell)
			for _, k := range keys {
				c.begin()
				if err := s.Insert(c, k); err != nil {
					t.Fatal(err)
				}
				c.end()
			}
			for _, k := range keys[:len(keys)/2] {
				c.begin()
				if _, err := s.Remove(c, k); err != nil {
					t.Fatal(err)
				}
				c.end()
			}
		}},
		{"BPlus", func(c *countingCtx, cell Cell, keys []uint64) {
			s := NewBPlus(cell)
			for _, k := range keys {
				c.begin()
				if err := s.Insert(c, k, k*2); err != nil {
					t.Fatal(err)
				}
				c.end()
			}
			for _, k := range keys[:len(keys)/2] {
				c.begin()
				if _, err := s.Remove(c, k); err != nil {
					t.Fatal(err)
				}
				c.end()
			}
		}},
	}

	anyDedupes := false
	for _, sc := range structures {
		t.Run(sc.name, func(t *testing.T) {
			c, cell := newCountingCtx(t)
			rng := randtest.New(t, 7)
			keys := make([]uint64, 0, 128)
			seen := map[uint64]bool{}
			for len(keys) < 128 {
				k := uint64(rng.Intn(1 << 20))
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
			sc.run(c, cell, keys)
			if c.dedupes > 0 {
				anyDedupes = true
			}
		})
	}
	if !anyDedupes {
		t.Error("no structure touched an object twice in one transaction; the dedup contract (and this test) would be vacuous")
	}
}
