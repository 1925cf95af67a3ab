package vm

import (
	"bytes"
	"sync"
	"testing"
)

// An untouched page reads as zeros and stays non-resident; a write makes
// exactly the page it lands in resident.
func TestDemandZero(t *testing.T) {
	as := NewAddressSpace(1)
	r, err := as.Map(8 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xff}, 3*PageSize)
	if err := as.ReadAt(r.Base+100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Error("never-written pages must read as zeros")
	}
	if got := as.ResidentBytes(); got != 0 {
		t.Errorf("reading made %d bytes resident", got)
	}
	if as.ResidentPage(r.Base) != nil {
		t.Error("ResidentPage of an untouched page must be nil")
	}

	if err := as.Write64(r.Base+5*PageSize+16, 0xabcdef); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentBytes(); got != PageSize {
		t.Errorf("one 8-byte write made %d bytes resident, want one page", got)
	}
	for i := uint64(0); i < 8; i++ {
		if got := as.ResidentPage(r.Base+i*PageSize) != nil; got != (i == 5) {
			t.Errorf("page %d resident = %t", i, got)
		}
	}
	if v, _ := as.Read64(r.Base + 5*PageSize + 16); v != 0xabcdef {
		t.Errorf("read back %#x", v)
	}
	if as.MappedBytes() != 8*PageSize {
		t.Errorf("MappedBytes = %d", as.MappedBytes())
	}

	// A write that straddles a boundary touches both pages, and only those.
	if err := as.WriteAt(r.Base+2*PageSize-4, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentBytes(); got != 3*PageSize {
		t.Errorf("resident = %d, want three pages", got)
	}
}

// A frame number recycled through Unmap and Map carries no bytes over.
func TestRecycledFrameReadsZero(t *testing.T) {
	as := NewAddressSpace(2)
	r1, _ := as.Map(2 * PageSize)
	pa1, _ := as.Translate(r1.Base)
	if err := as.WriteAt(r1.Base, bytes.Repeat([]byte{0x5a}, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(r1); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentBytes(); got != 0 {
		t.Errorf("Unmap left %d bytes resident", got)
	}
	r2, _ := as.Map(2 * PageSize)
	pa2, _ := as.Translate(r2.End() - PageSize)
	if pa1 != pa2 {
		t.Fatalf("frame not recycled: %#x then %#x", pa1, pa2)
	}
	buf := make([]byte, 2*PageSize)
	if err := as.ReadAt(r2.Base, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Error("recycled frames must read as zeros")
	}
}

// Frame numbers are assigned at Map time in an order every simulated
// statistic depends on (physical address = PFN << 12 indexes the caches and
// tags the Parallel POLB): most recently freed first, then the next unused.
// The constants were captured before pages became demand-zero.
func TestFrameOrderPinned(t *testing.T) {
	as := NewAddressSpace(11)
	a, _ := as.Map(3 * PageSize)
	b, _ := as.Map(5 * PageSize)
	if err := as.Unmap(a); err != nil {
		t.Fatal(err)
	}
	c, _ := as.Map(4 * PageSize)
	d, _ := as.Map(2 * PageSize)
	want := []struct {
		r           Region
		first, last uint64
	}{
		{Region{0x768517db0000, 0x5000}, 0x3000, 0x7fff},
		{Region{0x7d914f2c3000, 0x4000}, 0x2000, 0x8fff},
		{Region{0x7b7c7e355000, 0x2000}, 0x9000, 0xafff},
	}
	for i, r := range []Region{b, c, d} {
		if r != want[i].r {
			t.Errorf("region %d = %#x+%#x, want %#x+%#x", i, r.Base, r.Size, want[i].r.Base, want[i].r.Size)
		}
		first, _ := as.Translate(r.Base)
		last, _ := as.Translate(r.End() - 1)
		if first != want[i].first || last != want[i].last {
			t.Errorf("region %d translates to %#x..%#x, want %#x..%#x", i, first, last, want[i].first, want[i].last)
		}
	}
}

// The region index stays sorted and exact under interleaved map and unmap.
func TestRegionIndex(t *testing.T) {
	as := NewAddressSpace(13)
	var rs []Region
	for i := 0; i < 64; i++ {
		r, err := as.Map(uint64(1+i%3) * PageSize)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	for i := 0; i < len(rs); i += 3 {
		if err := as.Unmap(rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(as.regions); i++ {
		if as.regions[i-1].End() > as.regions[i].Base {
			t.Fatalf("regions %d and %d out of order or overlapping", i-1, i)
		}
	}
	for i, r := range rs {
		for _, va := range []uint64{r.Base, r.End() - 1} {
			got, ok := as.RegionOf(va)
			if gone := i%3 == 0; ok == gone || (ok && got != r) {
				t.Errorf("RegionOf(%#x) = %+v, %t (unmapped: %t)", va, got, ok, gone)
			}
		}
		if _, err := as.MapFixed(r.Base, PageSize); (err == nil) != (i%3 == 0) {
			t.Errorf("MapFixed over region %d: err = %v", i, err)
		}
	}
}

// Goroutines first-touching distinct pages of one concurrent address space
// (the sharded heap's discipline: writers exclusive per pool) each get their
// own page. Run under -race.
func TestConcurrentFirstTouch(t *testing.T) {
	const workers, pages = 8, 32
	as := NewAddressSpace(3)
	as.SetConcurrent()
	r, err := as.Map(workers * pages * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := 0; p < pages; p++ {
				// Interleave the workers' pages so neighbours in the frame
				// table are touched by different goroutines.
				va := r.Base + uint64(p*workers+w)*PageSize
				if err := as.Write64(va+8, uint64(w)<<32|uint64(p)); err != nil {
					t.Error(err)
					return
				}
				if v, err := as.Read64(va + 8); err != nil || v != uint64(w)<<32|uint64(p) {
					t.Errorf("worker %d page %d read %#x, %v", w, p, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := as.ResidentBytes(); got != workers*pages*PageSize {
		t.Errorf("resident = %d, want %d", got, workers*pages*PageSize)
	}
}
