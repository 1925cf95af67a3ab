package pds

import (
	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pmem"
)

// List is the paper's persistent singly-linked list (§2.2, Figure 4):
// node = {key, next OID}, anchored by a head cell. The list may span pools.
type List struct {
	head Cell
}

// List node layout.
const (
	listKeyOff  = 0
	listNextOff = 8
	// ListNodeBytes is the allocation size of one node.
	ListNodeBytes = 16
)

// NewList builds a list anchored at the given cell (which must read
// oid.Null for an empty list).
func NewList(head Cell) *List { return &List{head: head} }

// Find traverses the list for key, returning the node's ObjectID (Null if
// absent). This is the paper's find() with its per-node translation.
func (l *List) Find(ctx Ctx, key uint64) (oid.OID, error) {
	h := ctx.Heap()
	cur, err := l.head.Get()
	if err != nil {
		return oid.Null, err
	}
	e := h.Emit
	for !cur.OID().IsNull() {
		ref, err := h.Deref(cur.OID(), cur.Reg)
		if err != nil {
			return oid.Null, err
		}
		k, err := ref.Load64(listKeyOff)
		if err != nil {
			return oid.Null, err
		}
		cmp := e.Compute(nodeWork, k.Reg)
		match := k.V == key
		e.Branch("list.find.match", match, cmp)
		if match {
			return cur.OID(), nil
		}
		if cur, err = ref.Load64(listNextOff); err != nil {
			return oid.Null, err
		}
		e.Branch("list.find.next", !cur.OID().IsNull(), cur.Reg)
	}
	return oid.Null, nil
}

// Insert pushes a new node with the key at the head (the paper's insert).
func (l *List) Insert(ctx Ctx, key uint64) error {
	h := ctx.Heap()
	node, err := ctx.Alloc(key, ListNodeBytes)
	if err != nil {
		return err
	}
	ref, err := h.Deref(node, isa.RZ)
	if err != nil {
		return err
	}
	if err := ref.Store64(listKeyOff, key, isa.RZ); err != nil {
		return err
	}
	old, err := l.head.Get()
	if err != nil {
		return err
	}
	if err := ref.Store64(listNextOff, old.V, old.Reg); err != nil {
		return err
	}
	if err := ctx.Touch(l.head.OID(), 8); err != nil {
		return err
	}
	return l.head.Set(node, pmem.Word{})
}

// Remove unlinks and frees the first node with the key. It reports whether
// a node was removed.
func (l *List) Remove(ctx Ctx, key uint64) (bool, error) {
	h := ctx.Heap()
	e := h.Emit
	prev := oid.Null // Null = the head cell itself
	cur, err := l.head.Get()
	if err != nil {
		return false, err
	}
	for !cur.OID().IsNull() {
		ref, err := h.Deref(cur.OID(), cur.Reg)
		if err != nil {
			return false, err
		}
		k, err := ref.Load64(listKeyOff)
		if err != nil {
			return false, err
		}
		cmp := e.Compute(nodeWork, k.Reg)
		match := k.V == key
		e.Branch("list.rm.match", match, cmp)
		next, err := ref.Load64(listNextOff)
		if err != nil {
			return false, err
		}
		if match {
			if prev.IsNull() {
				if err := ctx.Touch(l.head.OID(), 8); err != nil {
					return false, err
				}
				if err := l.head.Set(next.OID(), next); err != nil {
					return false, err
				}
			} else {
				if err := ctx.Touch(prev.FieldAt(listNextOff), 8); err != nil {
					return false, err
				}
				pref, err := h.Deref(prev, isa.RZ)
				if err != nil {
					return false, err
				}
				if err := pref.Store64(listNextOff, next.V, next.Reg); err != nil {
					return false, err
				}
			}
			if err := ctx.Free(cur.OID()); err != nil {
				return false, err
			}
			return true, nil
		}
		prev = cur.OID()
		cur = next
		e.Branch("list.rm.next", !cur.OID().IsNull(), cur.Reg)
	}
	return false, nil
}

// Len walks the list and counts nodes (verification helper; emits the
// traversal like any read).
//
//potlint:allow unusedexport kept for ExampleList, TestListBasics and TestListAgainstReference
func (l *List) Len(ctx Ctx) (int, error) {
	h := ctx.Heap()
	n := 0
	cur, err := l.head.Get()
	if err != nil {
		return 0, err
	}
	for !cur.OID().IsNull() {
		ref, err := h.Deref(cur.OID(), cur.Reg)
		if err != nil {
			return 0, err
		}
		if cur, err = ref.Load64(listNextOff); err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

// Keys returns the keys in list order (verification helper).
func (l *List) Keys(ctx Ctx) ([]uint64, error) {
	h := ctx.Heap()
	var keys []uint64
	cur, err := l.head.Get()
	if err != nil {
		return nil, err
	}
	for !cur.OID().IsNull() {
		ref, err := h.Deref(cur.OID(), cur.Reg)
		if err != nil {
			return nil, err
		}
		k, err := ref.Load64(listKeyOff)
		if err != nil {
			return nil, err
		}
		keys = append(keys, k.V)
		if cur, err = ref.Load64(listNextOff); err != nil {
			return nil, err
		}
	}
	return keys, nil
}
