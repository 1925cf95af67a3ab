package mem

import (
	"testing"

	"potgo/internal/vm"
)

func setup(t *testing.T) (*Hierarchy, vm.Region, *vm.AddressSpace) {
	t.Helper()
	as := vm.NewAddressSpace(1)
	r, err := as.Map(64 * vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return New(DefaultConfig(), as), r, as
}

func TestDefaultConfigMatchesPaperTable4(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.L1DSets * cfg.L1DWays * 64; got != 32*1024 {
		t.Errorf("L1D size = %d", got)
	}
	if got := cfg.L2Sets * cfg.L2Ways * 64; got != 256*1024 {
		t.Errorf("L2 size = %d", got)
	}
	if got := cfg.L3Sets * cfg.L3Ways * 64; got != 8*1024*1024 {
		t.Errorf("L3 size = %d", got)
	}
	if cfg.L1Latency != 3 || cfg.L2Latency != 8 || cfg.L3Latency != 27 || cfg.MemLatency != 120 {
		t.Error("latencies must match Table 4")
	}
	if cfg.DTLBEntries != 64 || cfg.TLBMissPenalty != 30 {
		t.Error("TLB parameters must match Table 4")
	}
	if cfg.CLWBLatency != 100 {
		t.Error("CLWB latency must be 100 cycles")
	}
}

func TestColdAccessPaysMemoryAndTLB(t *testing.T) {
	h, r, _ := setup(t)
	lat, err := h.DataAccess(r.Base)
	if err != nil {
		t.Fatal(err)
	}
	// Cold: TLB miss (30) + memory (120).
	if lat != 150 {
		t.Errorf("cold access latency = %d, want 150", lat)
	}
	// Warm: L1 hit, TLB hit.
	lat, _ = h.DataAccess(r.Base)
	if lat != 3 {
		t.Errorf("warm access latency = %d, want 3", lat)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h, r, _ := setup(t)
	h.DataAccess(r.Base) // fill everything
	// Evict from L1 only: touch enough conflicting lines. L1D is 64 sets
	// x 8 ways; lines at 4 KB stride share a set.
	for i := 1; i <= 8; i++ {
		h.DataAccess(r.Base + uint64(i)*4096)
	}
	lat, _ := h.DataAccess(r.Base)
	if lat != 8 {
		t.Errorf("L1-evicted line should hit L2: latency = %d, want 8", lat)
	}
}

func TestUnmappedAccessErrors(t *testing.T) {
	h, _, _ := setup(t)
	if _, err := h.DataAccess(0xdead000); err == nil {
		t.Error("unmapped data access must error")
	}
	if _, err := h.CLWB(0xdead000); err == nil {
		t.Error("unmapped CLWB must error")
	}
}

func TestCLWB(t *testing.T) {
	h, r, _ := setup(t)
	lat, err := h.CLWB(r.Base)
	if err != nil || lat != 100 {
		t.Errorf("CLWB = %d, %v", lat, err)
	}
	if h.Stats().CLWBs != 1 {
		t.Error("CLWB counter")
	}
}

func TestStatsAccumulate(t *testing.T) {
	h, r, _ := setup(t)
	h.DataAccess(r.Base)
	s := h.Stats()
	if s.L1D.Accesses() == 0 || s.DTLB.Accesses() == 0 {
		t.Errorf("stats must accumulate: %+v", s)
	}
	// A warm access is an L1 hit.
	if lat, _ := h.DataAccess(r.Base); lat != 3 {
		t.Errorf("warm access latency = %d, want 3", lat)
	}
}

func TestTranslateExposed(t *testing.T) {
	h, r, as := setup(t)
	pa1, ok1 := h.Translate(r.Base)
	pa2, ok2 := as.Translate(r.Base)
	if !ok1 || !ok2 || pa1 != pa2 {
		t.Error("Translate must delegate to the page table")
	}
}

func TestNextLinePrefetch(t *testing.T) {
	as := vm.NewAddressSpace(2)
	r, _ := as.Map(64 * vm.PageSize)
	cfg := DefaultConfig()
	// Sequential line walk: with next-line prefetch, every second line
	// is already resident, whatever the line size.
	for _, shift := range []uint{6, 7} {
		pcfg := cfg
		pcfg.NextLinePrefetch = true
		pcfg.LineShift = shift
		h := New(pcfg, as)
		var misses int
		for i := uint64(0); i < 64; i++ {
			lat, err := h.DataAccess(r.Base + i<<shift)
			if err != nil {
				t.Fatal(err)
			}
			if lat > cfg.L1Latency+cfg.TLBMissPenalty {
				misses++
			}
		}
		if misses > 34 {
			t.Errorf("%d-byte lines: sequential walk missed %d of 64 lines despite prefetch", 1<<shift, misses)
		}
		if h.Stats().Prefetches == 0 {
			t.Error("prefetch counter must accumulate")
		}
	}
	// Without prefetch, every line of a fresh region misses.
	h2 := New(DefaultConfig(), as)
	var misses2 int
	for i := uint64(0); i < 64; i++ {
		lat, _ := h2.DataAccess(r.Base + vm.PageSize + i*64)
		if lat > cfg.L1Latency+cfg.TLBMissPenalty {
			misses2++
		}
	}
	if misses2 < 60 {
		t.Errorf("without prefetch expected ~64 misses, got %d", misses2)
	}
	if h2.Stats().Prefetches != 0 {
		t.Error("prefetch counter must stay zero when disabled")
	}
}
