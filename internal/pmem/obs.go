package pmem

import "potgo/internal/obs"

// PublishMetrics adds the heap's library-activity counters to the registry
// under "pmem.". Counters aggregate across heaps sharing a registry. Safe on
// a nil registry.
func (h *Heap) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s := h.StatsSnapshot()
	reg.Counter("pmem.tx.begins").Add(s.TxBegins)
	reg.Counter("pmem.tx.commits").Add(s.TxCommits)
	reg.Counter("pmem.tx.aborts").Add(s.TxAborts)
	reg.Counter("pmem.tx.undo_records").Add(s.UndoRecords)
	reg.Counter("pmem.tx.undo_bytes").Add(s.UndoBytes)
	reg.Counter("pmem.alloc.allocs").Add(s.Allocs)
	reg.Counter("pmem.alloc.frees").Add(s.Frees)
	reg.Counter("pmem.alloc.bytes").Add(s.AllocBytes)
	reg.Counter("pmem.persists").Add(s.Persists)
	reg.Counter("pmem.pools.created").Add(s.PoolsCreated)
	reg.Counter("pmem.pools.opened").Add(s.PoolsOpened)
	reg.Counter("pmem.alloc.spans_carved").Add(s.SpansCarved)
	reg.Counter("pmem.groupcommit.fences").Add(s.GroupCommits)
	reg.Counter("pmem.groupcommit.txns").Add(s.GroupCommitTxns)

	// Slab occupancy across the currently open pools: carved spans, total
	// slab slots, and the fraction of them live. Gauges (point-in-time),
	// unlike the monotone counters above.
	var spans, slots, live int
	for _, p := range h.open {
		sp, st, lv := h.SlabStats(p)
		spans += sp
		slots += st
		live += lv
	}
	reg.Gauge("pmem.slab.spans").Set(float64(spans))
	reg.Gauge("pmem.slab.slots").Set(float64(slots))
	reg.Gauge("pmem.slab.live_slots").Set(float64(live))
	if slots > 0 {
		reg.Gauge("pmem.slab.occupancy").Set(float64(live) / float64(slots))
	}

	// Where the memory is: what the address space maps against what it has
	// paid for (pages are demand-zero, so resident is the part that was
	// written), and the durable pages of every pool in the store.
	reg.Gauge("vm.mapped_bytes").Set(float64(h.AS.MappedBytes()))
	reg.Gauge("vm.resident_bytes").Set(float64(h.AS.ResidentBytes()))
	reg.Gauge("pmem.store.resident_bytes").Set(float64(h.Store.ResidentBytes()))

	// The snapshot mirror, on heaps that enabled it: versions in and out,
	// and a walk of the version index (how many objects it tracks, in how
	// many table slots, and the most entries any one look-up examines).
	if m := h.mvcc; m != nil {
		reg.Counter("pmem.mvcc.publishes").Add(s.MVCCPublishes)
		reg.Counter("pmem.mvcc.reclaimed").Add(s.MVCCReclaimed)
		reg.Gauge("pmem.mvcc.versions_live").Set(float64(s.MVCCPublishes - s.MVCCReclaimed))
		idx := m.IndexStats()
		reg.Gauge("pmem.mvcc.index_entries").Set(float64(idx.Entries))
		reg.Gauge("pmem.mvcc.index_slots").Set(float64(idx.Slots))
		reg.Gauge("pmem.mvcc.max_probe").Set(float64(idx.MaxProbe))
		reg.Gauge("pmem.mvcc.epoch").Set(float64(m.Epoch()))
	}
}

// AttachObs hands the heap live metric handles for hot-path observations
// that cannot wait for an end-of-run PublishMetrics: currently the
// group-commit batch-size histogram (how many committers each leader
// SFENCE covered). Safe on a nil registry (the handles become no-ops);
// call before sharing the heap across goroutines.
func (h *Heap) AttachObs(reg *obs.Registry) {
	h.gc.batchHist = reg.Histogram("pmem.groupcommit.batch_size", 1, 2, 4, 8, 16, 32, 64)
}
