package core

import (
	"testing"

	"potgo/internal/oid"
	"potgo/internal/polb"
	"potgo/internal/pot"
	"potgo/internal/vm"
)

type fixture struct {
	as    *vm.AddressSpace
	table *pot.Table
	pools map[oid.PoolID]vm.Region
}

func newFixture(t *testing.T, pools ...oid.PoolID) *fixture {
	t.Helper()
	as := vm.NewAddressSpace(42)
	table, err := pot.New(as, 1024)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{as: as, table: table, pools: map[oid.PoolID]vm.Region{}}
	for _, p := range pools {
		r, err := as.Map(8 * vm.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := table.Insert(p, r.Base); err != nil {
			t.Fatal(err)
		}
		f.pools[p] = r
	}
	return f
}

func TestDefaultConfigs(t *testing.T) {
	p := DefaultConfig(polb.Pipelined)
	if p.POLBSize != 32 || p.POLBLatency != 3 || p.POTWalkLatency != 30 {
		t.Errorf("Pipelined defaults = %+v", p)
	}
	q := DefaultConfig(polb.Parallel)
	if q.POTWalkLatency != 60 {
		t.Errorf("Parallel walk latency = %d, want 60", q.POTWalkLatency)
	}
}

func TestPipelinedTranslationLatencies(t *testing.T) {
	f := newFixture(t, 7)
	tr := New(DefaultConfig(polb.Pipelined), f.table, f.as)
	o := oid.New(7, 0x123)

	// Cold: POLB access (3) + POT walk (30).
	res, err := tr.Translate(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 33 {
		t.Errorf("cold latency = %d, want 33", res.Latency)
	}
	if res.POLBHit {
		t.Error("cold translation cannot hit the POLB")
	}
	if res.VA != f.pools[7].Base+0x123 {
		t.Errorf("VA = %#x", res.VA)
	}
	if res.BypassTLB {
		t.Error("Pipelined must go through the TLB")
	}

	// Warm: POLB access only.
	res, _ = tr.Translate(o.Add(64))
	if res.Latency != 3 || !res.POLBHit {
		t.Errorf("warm: latency = %d, hit = %t", res.Latency, res.POLBHit)
	}
	if res.VA != f.pools[7].Base+0x123+64 {
		t.Errorf("warm VA = %#x", res.VA)
	}

	s := tr.Stats()
	if s.Translations != 2 || s.POLBHits != 1 || s.POLBMisses != 1 || s.POTWalks != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.POLBMissRate() != 0.5 {
		t.Errorf("miss rate = %v", s.POLBMissRate())
	}
}

func TestParallelTranslationLatencies(t *testing.T) {
	f := newFixture(t, 9)
	tr := New(DefaultConfig(polb.Parallel), f.table, f.as)
	o := oid.New(9, 0x2345) // page 2 of the pool

	// Cold: POT walk + page walk = 60, no POLB-access charge.
	res, err := tr.Translate(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 60 {
		t.Errorf("cold latency = %d, want 60", res.Latency)
	}
	if !res.BypassTLB {
		t.Error("Parallel yields physical addresses (no TLB)")
	}
	wantPA, _ := f.as.Translate(f.pools[9].Base + 0x2345)
	if res.PA != wantPA {
		t.Errorf("PA = %#x, want %#x", res.PA, wantPA)
	}

	// Warm same page: free.
	res, _ = tr.Translate(oid.New(9, 0x2FF0))
	if res.Latency != 0 || !res.POLBHit || !res.BypassTLB {
		t.Errorf("warm: %+v", res)
	}
	if got, _ := f.as.Translate(f.pools[9].Base + 0x2FF0); res.PA != got {
		t.Errorf("warm PA = %#x, want %#x", res.PA, got)
	}
	if res.VA != f.pools[9].Base+0x2FF0 {
		t.Errorf("warm VA = %#x", res.VA)
	}

	// Different page of the same pool: miss again (the Parallel POLB
	// tracks pages, not pools).
	res, _ = tr.Translate(oid.New(9, 0x4000))
	if res.POLBHit {
		t.Error("new page must miss under Parallel")
	}
	if res.Latency != 60 {
		t.Errorf("page-miss latency = %d", res.Latency)
	}
}

func TestIdealChargesNothing(t *testing.T) {
	f := newFixture(t, 3)
	cfg := DefaultConfig(polb.Pipelined)
	cfg.Ideal = true
	tr := New(cfg, f.table, f.as)
	res, err := tr.Translate(oid.New(3, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 0 {
		t.Errorf("ideal cold latency = %d, want 0", res.Latency)
	}
	res, _ = tr.Translate(oid.New(3, 16))
	if res.Latency != 0 {
		t.Errorf("ideal warm latency = %d, want 0", res.Latency)
	}
	if res.VA != f.pools[3].Base+16 {
		t.Errorf("ideal must still translate correctly: %#x", res.VA)
	}
}

func TestZeroConfigGetsDefaults(t *testing.T) {
	f := newFixture(t, 1)
	tr := New(Config{Design: polb.Parallel, POLBSize: 4}, f.table, f.as)
	if tr.Config().POLBLatency != 3 || tr.Config().POTWalkLatency != 60 {
		t.Errorf("zero-valued latencies must default: %+v", tr.Config())
	}
}

func TestExceptions(t *testing.T) {
	f := newFixture(t, 5)
	tr := New(DefaultConfig(polb.Pipelined), f.table, f.as)
	if _, err := tr.Translate(oid.Null); err == nil {
		t.Error("null dereference must fail")
	}
	if _, err := tr.Translate(oid.New(99, 0)); err == nil {
		t.Error("unmapped pool must raise the POT exception")
	}
	if tr.Stats().Exceptions != 2 {
		t.Errorf("exceptions = %d", tr.Stats().Exceptions)
	}
}

func TestInvalidatePool(t *testing.T) {
	f := newFixture(t, 5, 6)
	tr := New(DefaultConfig(polb.Pipelined), f.table, f.as)
	tr.Translate(oid.New(5, 0))
	tr.Translate(oid.New(6, 0))
	tr.InvalidatePool(5)
	res, _ := tr.Translate(oid.New(6, 8))
	if !res.POLBHit {
		t.Error("pool 6 must survive invalidation of pool 5")
	}
	res, _ = tr.Translate(oid.New(5, 8))
	if res.POLBHit {
		t.Error("pool 5 must have been invalidated")
	}
}

func TestNoPOLBAlwaysWalks(t *testing.T) {
	f := newFixture(t, 2)
	cfg := DefaultConfig(polb.Pipelined)
	cfg.POLBSize = 0
	tr := New(cfg, f.table, f.as)
	for i := 0; i < 5; i++ {
		res, err := tr.Translate(oid.New(2, uint32(i*8)))
		if err != nil {
			t.Fatal(err)
		}
		if res.POLBHit {
			t.Error("size-0 POLB can never hit")
		}
		if res.Latency != 33 {
			t.Errorf("latency = %d, want 33 (3 + 30 walk)", res.Latency)
		}
	}
	if tr.Stats().POTWalks != 5 {
		t.Errorf("walks = %d", tr.Stats().POTWalks)
	}
}

func TestPOLBMissRateEmpty(t *testing.T) {
	var s Stats
	if s.POLBMissRate() != 0 {
		t.Error("empty miss rate = 0")
	}
}
