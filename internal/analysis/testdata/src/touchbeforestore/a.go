// Package fixture exercises the touchbeforestore analyzer: in-place
// stores to persistent objects under a pds.Ctx need a dominating
// Ctx.Touch/Tx.AddRange snapshot unless the object is fresh.
package fixture

import (
	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pds"
	"potgo/internal/pmem"
)

const nodeBytes = 24

// insertBad stores in place with no snapshot: an abort cannot undo it.
func insertBad(ctx pds.Ctx, o oid.OID) error {
	ref, err := ctx.Heap().Deref(o, isa.RZ)
	if err != nil {
		return err
	}
	return ref.Store64(0, 7, isa.RZ) // want "store to persistent object o without a preceding Ctx.Touch"
}

// insertGood snapshots before the store.
func insertGood(ctx pds.Ctx, o oid.OID) error {
	if err := ctx.Touch(o, nodeBytes); err != nil {
		return err
	}
	ref, err := ctx.Heap().Deref(o, isa.RZ)
	if err != nil {
		return err
	}
	return ref.Store64(0, 7, isa.RZ)
}

// branchBad only snapshots on one path, so the store is not covered.
func branchBad(ctx pds.Ctx, o oid.OID, flag bool) error {
	if flag {
		if err := ctx.Touch(o, nodeBytes); err != nil {
			return err
		}
	}
	ref, err := ctx.Heap().Deref(o, isa.RZ)
	if err != nil {
		return err
	}
	return ref.Store64(0, 7, isa.RZ) // want "store to persistent object o without a preceding Ctx.Touch"
}

// allocGood writes into a fresh object: the allocation itself rolls back
// on abort and the object is unreachable until published, so no snapshot
// is needed.
func allocGood(ctx pds.Ctx, key uint64) (oid.OID, error) {
	n, err := ctx.Alloc(key, nodeBytes)
	if err != nil {
		return n, err
	}
	ref, err := ctx.Heap().Deref(n, isa.RZ)
	if err != nil {
		return n, err
	}
	return n, ref.Store64(0, key, isa.RZ)
}

// snapshot always touches o, so callers may rely on it (exported as a
// fact by the analyzer).
func snapshot(ctx pds.Ctx, o oid.OID) error {
	return ctx.Touch(o, nodeBytes)
}

// helperGood delegates the snapshot to a helper.
func helperGood(ctx pds.Ctx, o oid.OID) error {
	if err := snapshot(ctx, o); err != nil {
		return err
	}
	ref, err := ctx.Heap().Deref(o, isa.RZ)
	if err != nil {
		return err
	}
	return ref.Store64(8, 9, isa.RZ)
}

// anchorBad swings an anchor cell without snapshotting it.
func anchorBad(ctx pds.Ctx, c pds.Cell, v oid.OID) error {
	return c.Set(v, pmem.Word{}) // want "Cell.Set on c without a preceding Ctx.Touch"
}

// anchorGood snapshots the cell first.
func anchorGood(ctx pds.Ctx, c pds.Cell, v oid.OID) error {
	if err := ctx.Touch(c.OID(), 8); err != nil {
		return err
	}
	return c.Set(v, pmem.Word{})
}

// loopGood mirrors the tree-descent idiom: Touch and store in the same
// iteration.
func loopGood(ctx pds.Ctx, o oid.OID, n int) error {
	for i := 0; i < n; i++ {
		if err := ctx.Touch(o, nodeBytes); err != nil {
			return err
		}
		ref, err := ctx.Heap().Deref(o, isa.RZ)
		if err != nil {
			return err
		}
		if err := ref.Store64(0, uint64(i), isa.RZ); err != nil {
			return err
		}
	}
	return nil
}

// staleTouchBad re-binds the variable after the snapshot: the touch no
// longer covers the object being stored to.
func staleTouchBad(ctx pds.Ctx, a, b oid.OID) error {
	o := a
	if err := ctx.Touch(o, nodeBytes); err != nil {
		return err
	}
	o = b
	ref, err := ctx.Heap().Deref(o, isa.RZ)
	if err != nil {
		return err
	}
	return ref.Store64(0, 7, isa.RZ) // want "store to persistent object o without a preceding Ctx.Touch"
}
