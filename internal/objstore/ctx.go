// Package objstore provides KV, the concurrent persistent key-value store
// over the sharded heap (pmem.Sharded) that cmd/potserve, internal/cluster
// and bench/ serve: one B+-tree per shard pool, with cross-shard Batches
// committed in one multi-pool transaction. It is the subject the
// snapshot-isolation stress (internal/lincheck) and the MVCC crash
// campaign (internal/crashtest) prove the concurrency layer with.
package objstore

import (
	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pds"
	"potgo/internal/pmem"
)

// shardCtx is the pds.Ctx of one shard: the shared transactional core
// plus placement in the shard's pool.
type shardCtx struct {
	pds.TxCtx
	alloc *pmem.Pool
}

var _ pds.Ctx = (*shardCtx)(nil)

func newShardCtx(h *pmem.Heap, p *pmem.Pool) shardCtx {
	return shardCtx{TxCtx: pds.NewTxCtx(h), alloc: p}
}

func (c *shardCtx) Alloc(_ uint64, size uint32) (oid.OID, error) {
	return c.AllocIn(c.alloc, size)
}

// bumpCounter snapshots and increments a persistent op counter inside the
// current transaction. Because the counter commits atomically with the
// operation, its recovered value tells a verifier exactly how many
// operations of the (per-shard, lock-serialized) journal became durable.
func bumpCounter(ctx *shardCtx, counter oid.OID) error {
	if err := ctx.Touch(counter, 8); err != nil {
		return err
	}
	ref, err := ctx.Heap().Deref(counter, isa.RZ)
	if err != nil {
		return err
	}
	w, err := ref.Load64(0)
	if err != nil {
		return err
	}
	return ref.Store64(0, w.V+1, w.Reg)
}

// counterValue reads a persistent op counter.
func counterValue(h *pmem.Heap, counter oid.OID) (uint64, error) {
	ref, err := h.Deref(counter, isa.RZ)
	if err != nil {
		return 0, err
	}
	w, err := ref.Load64(0)
	return w.V, err
}
