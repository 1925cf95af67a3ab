// Package pds implements the persistent data structures of the paper's
// workloads (Table 5): a linked list, a binary search tree, a red-black
// tree, a B-tree and a B+ tree, plus the string array used by SPS.
//
// Every structure is built the way the paper's §2.2 example is: nodes are
// persistent objects linked by ObjectIDs (never raw pointers), so a
// structure may live in one pool or span many pools; every node visit
// dereferences an ObjectID through the heap, which costs an oid_direct call
// in BASE mode and nothing in OPT mode.
//
// Placement and failure-safety policy is supplied by the caller through the
// Ctx interface: where new nodes are allocated (the ALL/EACH/RANDOM pool
// usage patterns of Table 6) and whether mutations are snapshotted into the
// undo log (the BASE/OPT vs *_NTX configurations of Table 7). TxCtx is
// the transactional half every Ctx shares; a Ctx adds only its placement.
package pds

import (
	"potgo/internal/oid"
	"potgo/internal/pmem"
)

// nodeWork is the per-node-visit application cost in single-cycle
// instructions (key compares, loop control, pointer bookkeeping) that
// compiled structure code executes besides its explicit loads, stores and
// branches.
const nodeWork = 12

// Ctx supplies allocation-placement and failure-safety policy to the
// structures.
type Ctx interface {
	// Heap returns the persistent heap all objects live in.
	Heap() *pmem.Heap
	// Alloc allocates a node of size bytes for the given key. The key
	// lets the RANDOM pattern pick its pool and the EACH pattern mint a
	// fresh one.
	Alloc(key uint64, size uint32) (oid.OID, error)
	// Free releases a node (transactional when failure-safety is on).
	Free(o oid.OID) error
	// Touch snapshots [o, o+size) into the undo log before modification
	// (a no-op when failure-safety is off). Implementations must
	// deduplicate per transaction, as TxCtx does.
	Touch(o oid.OID, size uint32) error
}

// Cell is an 8-byte persistent slot holding the anchor ObjectID of a
// structure (typically a field of a pool's root object).
type Cell struct {
	h *pmem.Heap
	o oid.OID
}

// NewCell wraps the slot at o.
func NewCell(h *pmem.Heap, o oid.OID) Cell { return Cell{h: h, o: o} }

// OID returns the slot's own ObjectID.
func (c Cell) OID() oid.OID { return c.o }

// Get reads the anchor.
func (c Cell) Get() (pmem.Word, error) {
	ref, err := c.h.Deref(c.o, 0)
	if err != nil {
		return pmem.Word{}, err
	}
	return ref.Load64(0)
}

// Set writes the anchor. Callers snapshot via Ctx.Touch first when running
// transactionally.
func (c Cell) Set(v oid.OID, dep pmem.Word) error {
	ref, err := c.h.Deref(c.o, 0)
	if err != nil {
		return err
	}
	return ref.Store64(0, uint64(v), dep.Reg)
}
