package polb

import (
	"testing"
	"testing/quick"

	"potgo/internal/oid"
)

func TestDesignString(t *testing.T) {
	if Pipelined.String() != "Pipelined" || Parallel.String() != "Parallel" {
		t.Error("design names")
	}
	if Design(9).String() == "" {
		t.Error("unknown design must render")
	}
}

func TestPipelinedTagIsPool(t *testing.T) {
	p := New(Pipelined, 4)
	a := oid.New(7, 0x100)
	b := oid.New(7, 0xffff00) // same pool, far-away offset
	p.Fill(a, 0x7000)
	if v, hit := p.Lookup(b); !hit || v != 0x7000 {
		t.Errorf("Pipelined entry must cover the whole pool: %#x, %t", v, hit)
	}
	if _, hit := p.Lookup(oid.New(8, 0x100)); hit {
		t.Error("different pool must miss")
	}
}

func TestParallelTagIsPoolPlusPage(t *testing.T) {
	p := New(Parallel, 4)
	a := oid.New(7, 0x1000) // page 1 of pool 7
	samePage := oid.New(7, 0x1abc)
	otherPage := oid.New(7, 0x2000)
	p.Fill(a, 0x9000)
	if v, hit := p.Lookup(samePage); !hit || v != 0x9000 {
		t.Errorf("same page must hit: %#x, %t", v, hit)
	}
	if _, hit := p.Lookup(otherPage); hit {
		t.Error("different page of the same pool must miss under Parallel")
	}
}

func TestLRUReplacement(t *testing.T) {
	p := New(Pipelined, 2)
	p.Fill(oid.New(1, 0), 0x1000)
	p.Fill(oid.New(2, 0), 0x2000)
	p.Lookup(oid.New(1, 0))       // pool 1 MRU
	p.Fill(oid.New(3, 0), 0x3000) // evicts pool 2
	if !p.Probe(oid.New(1, 0)) {
		t.Error("MRU pool must survive")
	}
	if p.Probe(oid.New(2, 0)) {
		t.Error("LRU pool must be evicted")
	}
	if !p.Probe(oid.New(3, 0)) {
		t.Error("filled pool must be present")
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestFillRefreshesExisting(t *testing.T) {
	p := New(Pipelined, 2)
	p.Fill(oid.New(1, 0), 0x1000)
	p.Fill(oid.New(1, 0), 0x1111)
	if p.Len() != 1 {
		t.Errorf("duplicate fill grew CAM to %d", p.Len())
	}
	if v, _ := p.Lookup(oid.New(1, 0)); v != 0x1111 {
		t.Errorf("fill must refresh data: %#x", v)
	}
}

func TestZeroSizeNoPOLB(t *testing.T) {
	p := New(Pipelined, 0)
	p.Fill(oid.New(1, 0), 0x1000)
	if _, hit := p.Lookup(oid.New(1, 0)); hit {
		t.Error("size-0 POLB must always miss")
	}
	if p.Stats().Misses != 1 || p.Stats().Hits != 0 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative size must panic")
		}
	}()
	New(Pipelined, -1)
}

func TestInvalidatePool(t *testing.T) {
	// Pipelined: one entry per pool.
	p := New(Pipelined, 8)
	p.Fill(oid.New(1, 0), 0x1000)
	p.Fill(oid.New(2, 0), 0x2000)
	p.InvalidatePool(1)
	if p.Probe(oid.New(1, 0)) {
		t.Error("invalidated pool resident (Pipelined)")
	}
	if !p.Probe(oid.New(2, 0)) {
		t.Error("other pool must survive (Pipelined)")
	}

	// Parallel: multiple page entries per pool; all must go.
	q := New(Parallel, 8)
	q.Fill(oid.New(1, 0x0000), 0xa000)
	q.Fill(oid.New(1, 0x1000), 0xb000)
	q.Fill(oid.New(2, 0x0000), 0xc000)
	q.InvalidatePool(1)
	if q.Probe(oid.New(1, 0x0000)) || q.Probe(oid.New(1, 0x1000)) {
		t.Error("invalidated pool pages resident (Parallel)")
	}
	if !q.Probe(oid.New(2, 0x0000)) {
		t.Error("other pool must survive (Parallel)")
	}
}

func TestFlushAndStats(t *testing.T) {
	p := New(Pipelined, 4)
	p.Fill(oid.New(1, 0), 0x1000)
	p.Lookup(oid.New(1, 0))
	p.Lookup(oid.New(2, 0))
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Accesses() != 2 || s.MissRate() != 0.5 {
		t.Errorf("stats = %+v", s)
	}
	p.Flush()
	if p.Len() != 0 {
		t.Error("flush must empty")
	}
	var empty Stats
	if empty.MissRate() != 0 {
		t.Error("empty miss rate is 0")
	}
}

func TestHardwareCostArithmetic(t *testing.T) {
	// Paper §5.1: 32-entry Pipelined = 128-byte tag + 256-byte data;
	// Parallel = 208-byte tag and data arrays.
	if got := 32 * Pipelined.TagBits() / 8; got != 128 {
		t.Errorf("Pipelined tag array = %d bytes", got)
	}
	if got := 32 * Pipelined.DataBits() / 8; got != 256 {
		t.Errorf("Pipelined data array = %d bytes", got)
	}
	if got := 32 * Parallel.TagBits() / 8; got != 208 {
		t.Errorf("Parallel tag array = %d bytes", got)
	}
	if got := 32 * Parallel.DataBits() / 8; got != 208 {
		t.Errorf("Parallel data array = %d bytes", got)
	}
}

// Property: the CAM never exceeds its configured size and a fill is always
// immediately visible.
func TestQuickCapacityAndVisibility(t *testing.T) {
	f := func(pools []uint16, sz uint8) bool {
		size := int(sz%16) + 1
		p := New(Pipelined, size)
		for _, pl := range pools {
			o := oid.New(oid.PoolID(pl)+1, 0)
			p.Fill(o, uint64(pl)<<12)
			if p.Len() > size {
				return false
			}
			if v, hit := p.Lookup(o); !hit || v != uint64(pl)<<12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: with N pools and a POLB of at least N entries, after warm-up
// there are no further misses (paper: RANDOM/32 pools on a 32-entry
// Pipelined POLB misses only during warm-up).
func TestQuickWarmupOnlyMisses(t *testing.T) {
	f := func(seed int64) bool {
		const pools = 32
		p := New(Pipelined, pools)
		// Warm up.
		for i := 1; i <= pools; i++ {
			o := oid.New(oid.PoolID(i), 0)
			if _, hit := p.Lookup(o); !hit {
				p.Fill(o, uint64(i))
			}
		}
		missesAfterWarmup := p.Stats().Misses
		rng := seed
		for i := 0; i < 1000; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			pool := oid.PoolID(uint64(rng)%pools) + 1
			if _, hit := p.Lookup(oid.New(pool, uint32(i))); !hit {
				return false
			}
		}
		return p.Stats().Misses == missesAfterWarmup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
