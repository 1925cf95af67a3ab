package pds

import (
	"potgo/internal/oid"
	"potgo/internal/pmem"
)

// TxCtx is the transactional core every Ctx shares: the heap, the
// transaction mutations are bound to, and the objects that transaction
// has already snapshotted. With no transaction bound it performs plain,
// setup-time operations (no undo, not crash-safe). A Ctx embeds TxCtx and
// adds only its placement policy: an Alloc(key, size) that picks a pool
// and calls AllocIn.
type TxCtx struct {
	h  *pmem.Heap
	tx *pmem.Tx
	// touched dedups undo snapshots within the bound transaction: an
	// object mutated twice needs only one AddRange. Cleared, not
	// reallocated, on Bind, so a long-lived Ctx stops allocating once it
	// has seen a typical transaction's working set.
	touched map[oid.OID]bool
}

// NewTxCtx returns a core over h with no transaction bound.
func NewTxCtx(h *pmem.Heap) TxCtx { return TxCtx{h: h} }

// Heap returns the heap all objects live in.
func (c *TxCtx) Heap() *pmem.Heap { return c.h }

// Bind routes later operations through tx (nil: plain operations) and
// forgets the previous transaction's snapshots.
func (c *TxCtx) Bind(tx *pmem.Tx) {
	c.tx = tx
	clear(c.touched)
}

// Begin opens a transaction whose undo log lives in pool p and binds it.
func (c *TxCtx) Begin(p *pmem.Pool) error {
	tx, err := c.h.Begin(p)
	if err != nil {
		return err
	}
	c.Bind(tx)
	return nil
}

// Commit commits the bound transaction and unbinds it. On error the
// transaction stays open and bound, so the caller can still Abort.
func (c *TxCtx) Commit() error {
	if err := c.tx.Commit(); err != nil {
		return err
	}
	c.Bind(nil)
	return nil
}

// Abort rolls the bound transaction back and unbinds it.
func (c *TxCtx) Abort() error {
	if err := c.tx.Abort(); err != nil {
		return err
	}
	c.Bind(nil)
	return nil
}

// AllocIn allocates size bytes in pool p, undone if the bound transaction
// aborts.
func (c *TxCtx) AllocIn(p *pmem.Pool, size uint32) (oid.OID, error) {
	if c.tx != nil {
		return c.tx.Alloc(p, size)
	}
	return c.h.Alloc(p, size)
}

// Free releases o; under a transaction the free is applied at commit.
func (c *TxCtx) Free(o oid.OID) error {
	if c.tx != nil {
		return c.tx.Free(o)
	}
	return c.h.Free(o)
}

// Touch snapshots [o, o+size) into the bound transaction's undo log, once
// per object per transaction; without a transaction it does nothing.
func (c *TxCtx) Touch(o oid.OID, size uint32) error {
	if c.tx == nil || c.touched[o] {
		return nil
	}
	if err := c.tx.AddRange(o, size); err != nil {
		return err
	}
	if c.touched == nil {
		c.touched = make(map[oid.OID]bool, 8)
	}
	c.touched[o] = true
	return nil
}
