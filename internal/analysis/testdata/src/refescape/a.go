// Package fixture exercises the refescape analyzer: pmem.Ref values are
// transient views into mapped pool memory and must not escape the API
// surface or outlive heap invalidation points.
package fixture

import (
	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pmem"
)

// LeakRef hands a raw view across the package boundary.
func LeakRef(h *pmem.Heap, o oid.OID) (pmem.Ref, error) { // want "exported function LeakRef returns a pmem.Ref"
	return h.Deref(o, isa.RZ)
}

// internalRef is unexported: the package owns the view's lifetime.
func internalRef(h *pmem.Heap, o oid.OID) (pmem.Ref, error) {
	return h.Deref(o, isa.RZ)
}

var cachedRef pmem.Ref

// stashGlobal parks a view in a package-level variable, where it outlives
// any pool mapping.
func stashGlobal(h *pmem.Heap, o oid.OID) error {
	r, err := internalRef(h, o)
	if err != nil {
		return err
	}
	cachedRef = r // want "pmem.Ref stored in package-level variable cachedRef"
	return nil
}

// Session is exported, so its Ref-typed field is visible API surface.
type Session struct {
	View pmem.Ref
	Obj  oid.OID
}

// NewSession leaks a view through a composite literal of an exported type.
func NewSession(h *pmem.Heap, o oid.OID) (*Session, error) {
	r, err := internalRef(h, o)
	if err != nil {
		return nil, err
	}
	return &Session{View: r, Obj: o}, nil // want "pmem.Ref stored in exported field View"
}

func rebindSession(h *pmem.Heap, s *Session, o oid.OID) error {
	r, err := internalRef(h, o)
	if err != nil {
		return err
	}
	s.View = r // want "pmem.Ref stored in exported field s.View"
	return nil
}

// cursor is unexported: a private per-operation ref cache (the rbt idiom)
// is allowed.
type cursor struct {
	ref pmem.Ref
}

func (c *cursor) bind(h *pmem.Heap, o oid.OID) error {
	r, err := internalRef(h, o)
	if err != nil {
		return err
	}
	c.ref = r
	return nil
}

// useAfterAbort keeps using a view across Tx.Abort, which may have moved
// or unmapped the object.
func useAfterAbort(h *pmem.Heap, tx *pmem.Tx, o oid.OID) (uint64, error) {
	r, err := h.Deref(o, isa.RZ)
	if err != nil {
		return 0, err
	}
	if err := tx.Abort(); err != nil {
		return 0, err
	}
	w, err := r.Load64(0) // want "pmem.Ref r used after the heap was closed, crashed, aborted, or recovered"
	if err != nil {
		return 0, err
	}
	return w.V, nil
}

// rederef re-derives the view after the invalidation point.
func rederef(h *pmem.Heap, tx *pmem.Tx, o oid.OID) (uint64, error) {
	r, err := h.Deref(o, isa.RZ)
	if err != nil {
		return 0, err
	}
	if err := tx.Abort(); err != nil {
		return 0, err
	}
	r, err = h.Deref(o, isa.RZ)
	if err != nil {
		return 0, err
	}
	w, err := r.Load64(0)
	if err != nil {
		return 0, err
	}
	return w.V, nil
}
