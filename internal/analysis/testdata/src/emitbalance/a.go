// Package fixture exercises the emitbalance analyzer: a path that emits
// CLWBs must fence (SFence, or Heap.Persist which fences internally)
// before a non-error return, unless the function's name says NoFence.
package fixture

import (
	"potgo/internal/emit"
	"potgo/internal/oid"
	"potgo/internal/pmem"
)

// flushLeaky falls off the end with an unfenced CLWB.
func flushLeaky(e *emit.Emitter, va uint64) {
	e.CLWB(va)
} // want "CLWBs not yet fenced"

// flushLeakyReturn returns with an unfenced CLWB.
func flushLeakyReturn(e *emit.Emitter, va uint64) error {
	e.CLWB(va)
	return nil // want "CLWBs not yet fenced"
}

// flushFenced pairs the write-back with a fence.
func flushFenced(e *emit.Emitter, va uint64) {
	e.CLWB(va)
	e.SFence()
}

// flushRangeNoFence declares the unfenced convention: exempt here, but
// calls to it count as emission.
func flushRangeNoFence(e *emit.Emitter, va uint64, lines int) {
	for i := 0; i < lines; i++ {
		e.CLWB(va + uint64(i)*64)
	}
}

// callerLeaky inherits the helper's outstanding CLWBs and never fences.
func callerLeaky(e *emit.Emitter, va uint64) {
	flushRangeNoFence(e, va, 2)
} // want "CLWBs not yet fenced"

// callerFenced pays the helper's fence debt.
func callerFenced(e *emit.Emitter, va uint64) {
	flushRangeNoFence(e, va, 2)
	e.SFence()
}

// persistFences relies on Heap.Persist's internal trailing fence.
func persistFences(h *pmem.Heap, o oid.OID, va uint64) error {
	h.Emit.CLWB(va)
	return h.Persist(o, 64)
}

// errPathOK: by convention a helper that fails before its emission tail
// may return the error unfenced.
func errPathOK(h *pmem.Heap, tx *pmem.Tx, o oid.OID, va uint64) error {
	h.Emit.CLWB(va)
	if err := tx.AddRange(o, 8); err != nil {
		return err
	}
	h.Emit.SFence()
	return nil
}

// guardedFence is the Tx.Commit idiom: the flag tracks whether anything was
// emitted, and the guarded branch fences.
func guardedFence(e *emit.Emitter, vas []uint64) {
	fence := false
	for _, va := range vas {
		e.CLWB(va)
		fence = true
	}
	if fence {
		e.SFence()
	}
}
