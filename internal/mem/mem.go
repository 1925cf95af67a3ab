// Package mem assembles the cache/TLB hierarchy of the simulated machine
// using the paper's Table 4 configuration and computes per-access latencies
// for the timing models.
//
// Latency semantics follow the paper (and Sniper): each level's configured
// latency is the load-to-use latency when the access is satisfied at that
// level (L1 3 cycles, L2 8, L3 27, main memory 120), and a D-TLB miss adds a
// fixed 30-cycle page-walk penalty. Caches are physically indexed/tagged in
// the model, so a translation to a physical address precedes (functionally,
// not temporally — VIPT L1) each look-up. Only the data side is modelled:
// the emitted stream carries no instruction fetches, so the paper's L1I and
// I-TLB have nothing to see.
package mem

import (
	"fmt"

	"potgo/internal/cache"
	"potgo/internal/vm"
)

// Config fixes the hierarchy geometry and latencies. DefaultConfig matches
// paper Table 4.
type Config struct {
	L1DSets, L1DWays int
	L2Sets, L2Ways   int
	L3Sets, L3Ways   int
	LineShift        uint

	L1Latency, L2Latency, L3Latency, MemLatency uint64

	DTLBEntries    int
	TLBMissPenalty uint64

	// CLWBLatency is the fixed cost of a cache-line write-back to
	// persistent memory (paper §5.1: 100 cycles, estimated from CLFLUSH).
	CLWBLatency uint64

	// NextLinePrefetch enables a simple L1 next-line prefetcher: every
	// demand miss also fills the following line. The paper's Table 4
	// machine does not specify a prefetcher; this is an ablation knob.
	NextLinePrefetch bool
}

// DefaultConfig returns the data side of the paper's Table 4 machine.
//
//	L1D: 32 KB, 8-way, 3 cycles
//	L2: 256 KB, 8-way, 8 cycles      L3: 8 MB, 16-way, 27 cycles
//	line 64 B, D-TLB 64, TLB miss 30 cycles
//	memory 120 cycles, CLWB 100 cycles
func DefaultConfig() Config {
	return Config{
		L1DSets: 64, L1DWays: 8, // 64*8*64B = 32 KB
		L2Sets: 512, L2Ways: 8, // 512*8*64B = 256 KB
		L3Sets: 8192, L3Ways: 16, // 8192*16*64B = 8 MB
		LineShift: 6,
		L1Latency: 3, L2Latency: 8, L3Latency: 27, MemLatency: 120,
		DTLBEntries: 64, TLBMissPenalty: 30,
		CLWBLatency: 100,
	}
}

// Stats aggregates hierarchy counters.
type Stats struct {
	L1D, L2, L3 cache.Stats
	DTLB        cache.Stats
	CLWBs       uint64
	// Prefetches counts next-line prefetch fills issued (when enabled).
	Prefetches uint64
}

// Hierarchy is the assembled memory system for one core.
type Hierarchy struct {
	cfg        Config
	as         *vm.AddressSpace
	l1d        *cache.Cache
	l2         *cache.Cache
	l3         *cache.Cache
	dtlb       *cache.TLB
	clwbs      uint64
	prefetches uint64
}

// New builds a hierarchy over the given address space.
func New(cfg Config, as *vm.AddressSpace) *Hierarchy {
	return &Hierarchy{
		cfg:  cfg,
		as:   as,
		l1d:  cache.New(cache.Config{Name: "L1D", Sets: cfg.L1DSets, Ways: cfg.L1DWays, LineShift: cfg.LineShift, Latency: cfg.L1Latency}),
		l2:   cache.New(cache.Config{Name: "L2", Sets: cfg.L2Sets, Ways: cfg.L2Ways, LineShift: cfg.LineShift, Latency: cfg.L2Latency}),
		l3:   cache.New(cache.Config{Name: "L3", Sets: cfg.L3Sets, Ways: cfg.L3Ways, LineShift: cfg.LineShift, Latency: cfg.L3Latency}),
		dtlb: cache.NewTLB("DTLB", cfg.DTLBEntries, cfg.TLBMissPenalty),
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// DataTLB charges a D-TLB access for a virtual address, returning the miss
// penalty in cycles (0 on a hit).
func (h *Hierarchy) DataTLB(va uint64) uint64 { return h.dtlb.Access(va) }

// CacheAccess walks the data-cache hierarchy with a physical address and
// returns the load-to-use latency of the level that satisfied it. Stores
// allocate exactly like loads (write-allocate, and store latency matters
// because later loads may forward from it / the SQ drains at that rate).
func (h *Hierarchy) CacheAccess(pa uint64) uint64 {
	if h.l1d.Access(pa) {
		return h.cfg.L1Latency
	}
	lat := h.cfg.MemLatency
	if h.l2.Access(pa) {
		lat = h.cfg.L2Latency
	} else if h.l3.Access(pa) {
		lat = h.cfg.L3Latency
	}
	if h.cfg.NextLinePrefetch {
		// Fill the following line alongside the demand miss. The
		// prefetch is free in time (overlapped with the demand fill)
		// but occupies cache capacity like any fill.
		h.prefetches++
		next := pa + 1<<h.cfg.LineShift
		if !h.l1d.Access(next) {
			h.l2.Access(next)
		}
	}
	return lat
}

// DataAccess performs a full virtually-addressed data access: D-TLB, page
// table, then the cache walk. It returns the total latency.
func (h *Hierarchy) DataAccess(va uint64) (uint64, error) {
	penalty := h.dtlb.Access(va)
	pa, ok := h.as.Translate(va)
	if !ok {
		return 0, fmt.Errorf("mem: data access to unmapped address %#x", va)
	}
	return penalty + h.CacheAccess(pa), nil
}

// CLWB charges a cache-line write-back to persistent memory.
func (h *Hierarchy) CLWB(va uint64) (uint64, error) {
	if _, ok := h.as.Translate(va); !ok {
		return 0, fmt.Errorf("mem: clwb of unmapped address %#x", va)
	}
	h.clwbs++
	return h.cfg.CLWBLatency, nil
}

// WalkAccess charges one hardware-walker access (POT walk probe) to the
// data hierarchy: page-table translation plus a cache access of the probed
// entry. POT entries cache well, so probe-accurate walks are usually much
// cheaper than the paper's pessimistic fixed 30 cycles. Implements
// core.Walker.
func (h *Hierarchy) WalkAccess(va uint64) uint64 {
	pa, ok := h.as.Translate(va)
	if !ok {
		return h.cfg.MemLatency
	}
	return h.CacheAccess(pa)
}

// Translate exposes the page table for structures (the Parallel POLB fill
// path) that need the physical address of a virtual address.
func (h *Hierarchy) Translate(va uint64) (uint64, bool) { return h.as.Translate(va) }

// Stats snapshots all counters.
func (h *Hierarchy) Stats() Stats {
	return Stats{
		L1D: h.l1d.Stats(), L2: h.l2.Stats(), L3: h.l3.Stats(),
		DTLB:       h.dtlb.Stats(),
		CLWBs:      h.clwbs,
		Prefetches: h.prefetches,
	}
}
