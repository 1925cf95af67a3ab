package pds

import (
	"encoding/binary"

	"potgo/internal/isa"
	"potgo/internal/oid"
)

// Snapshot (MVCC) B+-tree walks: FindSnap and ScanAppendSnap traverse the
// tree against an epoch-pinned view of committed post-images
// (pmem.PinSlot) instead of the live pool bytes, so readers run without
// shard locks while writers commit. The walks parse raw node buffers
// little-endian (the simulated pool memory is little-endian — log
// recovery parses it the same way) and deliberately bypass the volatile
// root cache: the cache is written by lock-holding writers and, more
// importantly, caches the PRESENT root, while a snapshot must resolve the
// root the pinned epoch saw through the anchor cell's version.
//
// The snapshot path does no emission — the concurrent heap runs with a
// detached emitter, and a snapshot read models a pure cache-resident
// traversal of the version mirror.
//
// Every walk returns ok=false when the view cannot serve it (an object
// missing from the mirror, or a buffer that fails validation); the caller
// falls back to the latched read path, which is always correct.

// SnapView resolves an object to the committed post-image visible at the
// view's pinned epoch. Implemented by *pmem.PinSlot.
type SnapView interface {
	SnapDeref(o oid.OID) ([]byte, bool)
}

// BPNodeSize is the on-media B+-tree node size, exported so stores can
// seed node versions into the MVCC mirror.
const BPNodeSize = bpNodeSize

// snapNode validates a raw node buffer and returns its key count.
func snapNode(buf []byte) (n int, leaf, ok bool) {
	if len(buf) < bpNodeSize {
		return 0, false, false
	}
	n = int(binary.LittleEndian.Uint64(buf[bpNOff:]))
	if n > bpMaxKeys {
		return 0, false, false
	}
	return n, binary.LittleEndian.Uint64(buf[bpLeafOff:]) != 0, true
}

// snapRoot resolves the tree's root OID through the anchor cell's version.
func (t *BPlus) snapRoot(v SnapView) (oid.OID, bool) {
	buf, ok := v.SnapDeref(t.root.OID())
	if !ok || len(buf) < 8 {
		return oid.Null, false
	}
	return oid.OID(binary.LittleEndian.Uint64(buf)), true
}

// FindSnap is FindFast against a pinned snapshot view: value and presence
// of key as of the view's epoch. ok=false means the view could not serve
// the walk and the caller must fall back to a latched read. Zero heap
// allocations.
//
//potlint:snapshot-read
//potlint:noalloc
func (t *BPlus) FindSnap(v SnapView, key uint64) (val uint64, found, ok bool) {
	cur, ok := t.snapRoot(v)
	if !ok {
		return 0, false, false
	}
	if cur.IsNull() {
		return 0, false, true // empty tree at this epoch: a valid miss
	}
	for {
		buf, ok := v.SnapDeref(cur)
		if !ok {
			return 0, false, false
		}
		n, leaf, ok := snapNode(buf)
		if !ok {
			return 0, false, false
		}
		if leaf {
			for i := 0; i < n; i++ {
				k := binary.LittleEndian.Uint64(buf[bpKeysOff+8*i:])
				if k == key {
					return binary.LittleEndian.Uint64(buf[bpValsOff+8*i:]), true, true
				}
				if k > key {
					break
				}
			}
			return 0, false, true
		}
		i := 0
		for i < n && key >= binary.LittleEndian.Uint64(buf[bpKeysOff+8*i:]) {
			i++
		}
		cur = oid.OID(binary.LittleEndian.Uint64(buf[bpKidsOff+8*i:]))
		if cur.IsNull() {
			return 0, false, false
		}
	}
}

// ScanAppendSnap is ScanAppend against a pinned snapshot view: up to max
// pairs with key >= from, in key order along the version-consistent leaf
// chain, appended to dst. ok=false leaves dst truncated to its input
// length and means the caller must fall back. Zero heap allocations once
// dst has reached its steady-state capacity.
//
//potlint:snapshot-read
//potlint:noalloc
func (t *BPlus) ScanAppendSnap(v SnapView, dst []KV, from uint64, max int) (out []KV, ok bool) {
	start := len(dst)
	cur, ok := t.snapRoot(v)
	if !ok {
		return dst, false
	}
	if cur.IsNull() || max <= 0 {
		return dst, true
	}
	// Descend to the leaf covering from.
	var buf []byte
	var n int
	for {
		buf, ok = v.SnapDeref(cur)
		if !ok {
			return dst[:start], false
		}
		var leaf bool
		n, leaf, ok = snapNode(buf)
		if !ok {
			return dst[:start], false
		}
		if leaf {
			break
		}
		i := 0
		for i < n && from >= binary.LittleEndian.Uint64(buf[bpKeysOff+8*i:]) {
			i++
		}
		cur = oid.OID(binary.LittleEndian.Uint64(buf[bpKidsOff+8*i:]))
		if cur.IsNull() {
			return dst[:start], false
		}
	}
	pos := 0
	for pos < n && binary.LittleEndian.Uint64(buf[bpKeysOff+8*pos:]) < from {
		pos++
	}
	for len(dst)-start < max {
		for ; pos < n && len(dst)-start < max; pos++ {
			dst = append(dst, KV{ //potlint:allow noalloc caller reuses dst; growth stops at the steady-state result size
				Key: binary.LittleEndian.Uint64(buf[bpKeysOff+8*pos:]),
				Val: binary.LittleEndian.Uint64(buf[bpValsOff+8*pos:]),
			})
		}
		if len(dst)-start >= max {
			break
		}
		next := oid.OID(binary.LittleEndian.Uint64(buf[bpNextOff:]))
		if next.IsNull() {
			break
		}
		buf, ok = v.SnapDeref(next)
		if !ok {
			return dst[:start], false
		}
		var leaf bool
		n, leaf, ok = snapNode(buf)
		if !ok || !leaf {
			return dst[:start], false
		}
		pos = 0
	}
	return dst, true
}

// VisitNodes walks every node of the tree root-down and calls visit with
// its OID — the seeding hook for the MVCC mirror (each visited node plus
// the anchor cell gets an initial version published from its live bytes).
func (t *BPlus) VisitNodes(ctx Ctx, visit func(o oid.OID) error) error {
	rootW, err := t.rootOID()
	if err != nil {
		return err
	}
	if rootW.OID().IsNull() {
		return nil
	}
	var walk func(o oid.OID) error
	walk = func(o oid.OID) error {
		if err := visit(o); err != nil {
			return err
		}
		var nd bpNode
		if err := t.read(ctx, o, isa.RZ, &nd); err != nil {
			return err
		}
		if nd.leaf {
			return nil
		}
		for _, c := range nd.kids {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(rootW.OID())
}

// AnchorOID exposes the anchor cell's OID (the 8-byte word holding the
// root node OID) so stores can seed and resolve it in the version mirror.
func (t *BPlus) AnchorOID() oid.OID { return t.root.OID() }
