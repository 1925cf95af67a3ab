package vm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
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

// TestWordAccessorsMatchByteAccess holds Read64/Write64/Read32/Write32 to
// ReadAt/WriteAt: two address spaces with the same placement take the same
// random operations, one through the word accessors and one through byte
// slices, and must return the same values and errors and end with the same
// bytes and the same resident pages. Offsets crowd page edges, so words
// straddle pages; the last two pages are never written and reads run past
// the region's end into unmapped memory.
func TestWordAccessorsMatchByteAccess(t *testing.T) {
	const pages, written = 8, 6
	rng := rand.New(rand.NewSource(7))
	word, bytewise := NewAddressSpace(11), NewAddressSpace(11)
	r, _ := word.Map(pages * PageSize)
	if r2, _ := bytewise.Map(pages * PageSize); r2 != r {
		t.Fatalf("placements differ: %+v and %+v", r, r2)
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	straddles := 0
	for step := 0; step < 20000; step++ {
		size := uint64(4 << rng.Intn(2))
		write := rng.Intn(2) == 0
		limit := uint64(pages*PageSize + 16)
		if write {
			limit = written*PageSize - size + 1
		}
		off := uint64(rng.Int63n(int64(limit)))
		if rng.Intn(2) == 0 {
			// Within a word of a page edge.
			edge := uint64(1+rng.Intn(pages)) * PageSize
			off = min(edge-uint64(rng.Intn(12)), limit-1)
		}
		if off%PageSize > PageSize-size {
			straddles++
		}
		va := r.Base + off
		v := rng.Uint64()
		var buf [8]byte
		b := buf[:size]
		switch {
		case write && size == 8:
			binary.LittleEndian.PutUint64(b, v)
			if e1, e2 := errText(word.Write64(va, v)), errText(bytewise.WriteAt(va, b)); e1 != e2 {
				t.Fatalf("Write64(%#x): %q, WriteAt: %q", va, e1, e2)
			}
		case write:
			binary.LittleEndian.PutUint32(b, uint32(v))
			if e1, e2 := errText(word.Write32(va, uint32(v))), errText(bytewise.WriteAt(va, b)); e1 != e2 {
				t.Fatalf("Write32(%#x): %q, WriteAt: %q", va, e1, e2)
			}
		case size == 8:
			got, err := word.Read64(va)
			err2 := bytewise.ReadAt(va, b)
			want := binary.LittleEndian.Uint64(b)
			if err2 != nil {
				want = 0
			}
			if got != want || errText(err) != errText(err2) {
				t.Fatalf("Read64(%#x) = %#x, %v; ReadAt gives %#x, %v", va, got, err, want, err2)
			}
		default:
			got, err := word.Read32(va)
			err2 := bytewise.ReadAt(va, b)
			want := binary.LittleEndian.Uint32(b)
			if err2 != nil {
				want = 0
			}
			if got != want || errText(err) != errText(err2) {
				t.Fatalf("Read32(%#x) = %#x, %v; ReadAt gives %#x, %v", va, got, err, want, err2)
			}
		}
	}
	if straddles < 100 {
		t.Errorf("only %d operations straddled a page", straddles)
	}
	for p := uint64(0); p < pages; p++ {
		va := r.Base + p*PageSize
		w, bw := word.ResidentPage(va), bytewise.ResidentPage(va)
		if (w == nil) != (bw == nil) || w != nil && *w != *bw {
			t.Errorf("page %d differs: resident %t and %t", p, w != nil, bw != nil)
		}
		if (w != nil) != (p < written) {
			t.Errorf("page %d resident = %t", p, w != nil)
		}
	}
}

func TestUnmapAndFrameReuse(t *testing.T) {
	as := NewAddressSpace(6)
	r1, _ := as.Map(2 * PageSize)
	framesBefore := as.frames
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
	if as.frames != framesBefore {
		t.Errorf("frames grew from %d to %d despite free list", framesBefore, as.frames)
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
