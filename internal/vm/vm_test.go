package vm

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMapBasics(t *testing.T) {
	as := NewAddressSpace(1)
	r, err := as.Map(100) // rounds up to one page
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != PageSize {
		t.Errorf("size = %d, want one page", r.Size)
	}
	if r.Base&PageMask != 0 {
		t.Errorf("base %#x not page aligned", r.Base)
	}
	if !mapped(as, r.Base) || !mapped(as, r.End()-1) {
		t.Error("mapped range must be addressable")
	}
	if mapped(as, r.End()) {
		t.Error("address past region must be unmapped")
	}
	if as.MappedBytes() != PageSize {
		t.Errorf("MappedBytes = %d", as.MappedBytes())
	}
}

func TestMapZeroFails(t *testing.T) {
	as := NewAddressSpace(1)
	if _, err := as.Map(0); err == nil {
		t.Error("mapping zero bytes must fail")
	}
}

func TestASLRRandomizesPlacement(t *testing.T) {
	a := NewAddressSpace(1)
	b := NewAddressSpace(2)
	ra, _ := a.Map(PageSize)
	rb, _ := b.Map(PageSize)
	if ra.Base == rb.Base {
		t.Error("different seeds should give different placements")
	}
	// Same seed gives identical placement: determinism.
	c := NewAddressSpace(1)
	rc, _ := c.Map(PageSize)
	if ra.Base != rc.Base {
		t.Error("same seed must reproduce placement")
	}
}

func TestMappingsDoNotOverlap(t *testing.T) {
	as := NewAddressSpace(7)
	var regions []Region
	for i := 0; i < 200; i++ {
		r, err := as.Map(4 * PageSize)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			if regions[i].overlaps(regions[j]) {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
}

func TestTranslateDistinctFrames(t *testing.T) {
	as := NewAddressSpace(3)
	r, _ := as.Map(4 * PageSize)
	seen := map[uint64]bool{}
	for va := r.Base; va < r.End(); va += PageSize {
		pa, ok := as.Translate(va)
		if !ok {
			t.Fatalf("translate %#x failed", va)
		}
		if pa&PageMask != 0 {
			t.Errorf("page-aligned VA %#x gave misaligned PA %#x", va, pa)
		}
		if seen[pa] {
			t.Errorf("frame %#x mapped twice", pa)
		}
		seen[pa] = true
	}
	// Offset preservation.
	pa0, _ := as.Translate(r.Base)
	pa5, _ := as.Translate(r.Base + 5)
	if pa5 != pa0+5 {
		t.Error("translation must preserve page offset")
	}
	if _, ok := as.Translate(0xdead0000); ok {
		t.Error("unmapped address must not translate")
	}
}

func TestReadWriteAcrossPages(t *testing.T) {
	as := NewAddressSpace(4)
	r, _ := as.Map(2 * PageSize)
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	va := r.Base + PageSize - 150 // straddles the page boundary
	if err := as.WriteAt(va, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 300)
	if err := as.ReadAt(va, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-page read/write mismatch")
	}
}

func TestReadWriteUnmappedFails(t *testing.T) {
	as := NewAddressSpace(4)
	if err := as.WriteAt(0x1000, []byte{1}); err == nil {
		t.Error("write to unmapped address must fail")
	}
	if err := as.ReadAt(0x1000, make([]byte, 1)); err == nil {
		t.Error("read of unmapped address must fail")
	}
}

func TestWordHelpers(t *testing.T) {
	as := NewAddressSpace(5)
	r, _ := as.Map(PageSize)
	if err := as.Write64(r.Base+8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := as.Read64(r.Base + 8)
	if err != nil || v != 0x1122334455667788 {
		t.Errorf("Read64 = %#x, %v", v, err)
	}
	if err := as.Write32(r.Base+24, 0xcafebabe); err != nil {
		t.Fatal(err)
	}
	w, err := as.Read32(r.Base + 24)
	if err != nil || w != 0xcafebabe {
		t.Errorf("Read32 = %#x, %v", w, err)
	}
}

func TestUnmapAndFrameReuse(t *testing.T) {
	as := NewAddressSpace(6)
	r1, _ := as.Map(2 * PageSize)
	framesBefore := len(as.frames)
	if err := as.Unmap(r1); err != nil {
		t.Fatal(err)
	}
	if mapped(as, r1.Base) {
		t.Error("unmapped region must not be addressable")
	}
	if err := as.Unmap(r1); err == nil {
		t.Error("double unmap must fail")
	}
	// New mapping reuses freed frames rather than growing physical memory.
	_, _ = as.Map(2 * PageSize)
	if len(as.frames) != framesBefore {
		t.Errorf("frames grew from %d to %d despite free list", framesBefore, len(as.frames))
	}
}

func TestRegionOf(t *testing.T) {
	as := NewAddressSpace(9)
	r, _ := as.Map(3 * PageSize)
	got, ok := as.RegionOf(r.Base + PageSize + 5)
	if !ok || got != r {
		t.Errorf("RegionOf = %+v, %t", got, ok)
	}
	if _, ok := as.RegionOf(0x42); ok {
		t.Error("RegionOf must miss for unmapped addresses")
	}
}

func TestArena(t *testing.T) {
	as := NewAddressSpace(10)
	a, err := NewArena(as, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := a.Alloc(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p1%8 != 0 {
		t.Errorf("allocation %#x not 8-aligned", p1)
	}
	p2, err := a.Alloc(100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p2%64 != 0 {
		t.Errorf("allocation %#x not 64-aligned", p2)
	}
	if p2 < p1+10 {
		t.Error("allocations overlap")
	}
	if _, err := a.Alloc(1, 3); err == nil {
		t.Error("non-power-of-two alignment must fail")
	}
	if _, err := a.Alloc(10*PageSize, 8); err == nil {
		t.Error("over-allocation must fail")
	}
	if a.next == a.region.Base {
		t.Error("the cursor must track consumption")
	}
	if a.region.Size != 2*PageSize {
		t.Error("the backing mapping must cover the requested size")
	}
	// Arena memory is real memory.
	if err := as.Write64(p1, 42); err != nil {
		t.Fatal(err)
	}
}

// Property: any value written at any in-range offset reads back.
func TestQuickReadBack(t *testing.T) {
	as := NewAddressSpace(11)
	r, _ := as.Map(16 * PageSize)
	f := func(off uint16, v uint64) bool {
		va := r.Base + uint64(off)%(r.Size-8)
		if err := as.Write64(va, v); err != nil {
			return false
		}
		got, err := as.Read64(va)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: translation is a bijection on mapped pages (no two VPNs share a
// frame).
func TestQuickTranslationInjective(t *testing.T) {
	as := NewAddressSpace(12)
	var rs []Region
	for i := 0; i < 32; i++ {
		r, err := as.Map(PageSize * 2)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	seen := map[uint64]uint64{}
	for _, r := range rs {
		for va := r.Base; va < r.End(); va += PageSize {
			pa, ok := as.Translate(va)
			if !ok {
				t.Fatalf("unmapped page at %#x", va)
			}
			if prev, dup := seen[pa]; dup {
				t.Fatalf("PA %#x maps both %#x and %#x", pa, prev, va)
			}
			seen[pa] = va
		}
	}
}

// mapped reports whether va lies in a mapped page.
func mapped(as *AddressSpace, va uint64) bool {
	_, ok := as.Translate(va)
	return ok
}
