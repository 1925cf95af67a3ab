// Package fixture exercises the persistbeforepublish analyzer: a freshly
// allocated ObjectID may only be linked into a reachable object once the
// new object is durable (Persist) or the link target is undo-logged
// (Touch or Tx.AddRange, so commit persists both sides).
package fixture

import (
	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pds"
	"potgo/internal/pmem"
)

const nodeBytes = 24

// publishBad links a fresh node whose contents may still sit in the cache
// hierarchy: a crash leaves a reachable node with garbage fields.
func publishBad(ctx pds.Ctx, parent oid.OID) error {
	n, err := ctx.Alloc(1, nodeBytes)
	if err != nil {
		return err
	}
	pref, err := ctx.Heap().Deref(parent, isa.RZ)
	if err != nil {
		return err
	}
	return pref.Store64(8, uint64(n), isa.RZ) // want "ObjectID n is published before its contents are durable"
}

// publishPersisted makes the node durable before linking it.
func publishPersisted(ctx pds.Ctx, parent oid.OID) error {
	n, err := ctx.Alloc(1, nodeBytes)
	if err != nil {
		return err
	}
	if err := ctx.Heap().Persist(n, nodeBytes); err != nil {
		return err
	}
	pref, err := ctx.Heap().Deref(parent, isa.RZ)
	if err != nil {
		return err
	}
	return pref.Store64(8, uint64(n), isa.RZ)
}

// publishLogged snapshots the link target instead: transaction commit then
// persists both the new node (its alloc record) and the link.
func publishLogged(ctx pds.Ctx, parent oid.OID) error {
	n, err := ctx.Alloc(1, nodeBytes)
	if err != nil {
		return err
	}
	if err := ctx.Touch(parent, nodeBytes); err != nil {
		return err
	}
	pref, err := ctx.Heap().Deref(parent, isa.RZ)
	if err != nil {
		return err
	}
	return pref.Store64(8, uint64(n), isa.RZ)
}

// publishTxLogged is publishLogged on a bare transaction handle:
// Tx.AddRange covers the link target.
func publishTxLogged(h *pmem.Heap, tx *pmem.Tx, p *pmem.Pool, parent oid.OID) error {
	n, err := tx.Alloc(p, nodeBytes)
	if err != nil {
		return err
	}
	if err := tx.AddRange(parent, nodeBytes); err != nil {
		return err
	}
	pref, err := h.Deref(parent, isa.RZ)
	if err != nil {
		return err
	}
	return pref.Store64(8, uint64(n), isa.RZ)
}

// anchorBad publishes a fresh node through an anchor cell with neither a
// persist nor a snapshot of the cell.
func anchorBad(ctx pds.Ctx, c pds.Cell) error {
	n, err := ctx.Alloc(1, nodeBytes)
	if err != nil {
		return err
	}
	return c.Set(n, pmem.Word{}) // want "ObjectID n is published before its contents are durable"
}

// anchorPersisted persists the node before swinging the anchor.
func anchorPersisted(ctx pds.Ctx, c pds.Cell) error {
	n, err := ctx.Alloc(1, nodeBytes)
	if err != nil {
		return err
	}
	if err := ctx.Heap().Persist(n, nodeBytes); err != nil {
		return err
	}
	return c.Set(n, pmem.Word{})
}

// anchorLogged snapshots the anchor cell instead.
func anchorLogged(ctx pds.Ctx, c pds.Cell) error {
	n, err := ctx.Alloc(1, nodeBytes)
	if err != nil {
		return err
	}
	if err := ctx.Touch(c.OID(), 8); err != nil {
		return err
	}
	return c.Set(n, pmem.Word{})
}

// relink stores a parameter OID: its provenance (and durability) is the
// caller's business, so it is not checked.
func relink(ctx pds.Ctx, parent, child oid.OID) error {
	pref, err := ctx.Heap().Deref(parent, isa.RZ)
	if err != nil {
		return err
	}
	return pref.Store64(8, uint64(child), isa.RZ)
}

// rewriteBad persists the node, then dirties it again before publishing:
// the earlier persist no longer covers the contents.
func rewriteBad(ctx pds.Ctx, parent oid.OID) error {
	h := ctx.Heap()
	n, err := ctx.Alloc(1, nodeBytes)
	if err != nil {
		return err
	}
	if err := h.Persist(n, nodeBytes); err != nil {
		return err
	}
	nref, err := h.Deref(n, isa.RZ)
	if err != nil {
		return err
	}
	if err := nref.Store64(0, 42, isa.RZ); err != nil {
		return err
	}
	pref, err := h.Deref(parent, isa.RZ)
	if err != nil {
		return err
	}
	return pref.Store64(8, uint64(n), isa.RZ) // want "ObjectID n is published before its contents are durable"
}
