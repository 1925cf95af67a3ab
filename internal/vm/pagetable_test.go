package vm

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// window is a placement source that puts every mapping at a random page of a
// narrow stretch of the arena, so regions crowd into shared 32 MB spans.
// rand.Rand.Int63n returns an Int63 below its bound unchanged, so a Map
// attempt lands exactly first+k pages into the arena.
type window struct {
	rng          *rand.Rand
	first, pages int64
}

func (w *window) Int63() int64 { return w.first + w.rng.Int63n(w.pages) }
func (w *window) Seed(int64)   {}

// refSpace is the reference model of an address space: a map from virtual
// page to frame, and the frame allocator spelled out as a stack of freed
// frames over a bump counter.
type refSpace struct {
	pfn    map[uint64]uint32 // VPN → PFN
	region map[uint64]Region // VPN → the region holding it
	free   []uint32
	next   uint32
}

func (ref *refSpace) mapRegion(r Region) {
	for va := r.Base; va < r.End(); va += PageSize {
		pfn := ref.next
		if n := len(ref.free); n > 0 {
			pfn, ref.free = ref.free[n-1], ref.free[:n-1]
		} else {
			ref.next++
		}
		ref.pfn[va>>PageShift] = pfn
		ref.region[va>>PageShift] = r
	}
}

func (ref *refSpace) unmapRegion(r Region) {
	for va := r.Base; va < r.End(); va += PageSize {
		ref.free = append(ref.free, ref.pfn[va>>PageShift])
		delete(ref.pfn, va>>PageShift)
		delete(ref.region, va>>PageShift)
	}
}

// check compares Translate and RegionOf at va against the reference.
func (ref *refSpace) check(as *AddressSpace, va uint64) error {
	pfn, want := ref.pfn[va>>PageShift]
	pa, ok := as.Translate(va)
	if ok != want || ok && pa != uint64(pfn)<<PageShift|va&PageMask {
		return fmt.Errorf("Translate(%#x) = %#x, %t; want frame %d, %t", va, pa, ok, pfn, want)
	}
	r, ok := as.RegionOf(va)
	if wantR := ref.region[va>>PageShift]; ok != want || r != wantR {
		return fmt.Errorf("RegionOf(%#x) = %+v, %t; want %+v, %t", va, r, ok, wantR, want)
	}
	return nil
}

// TestPageTableMatchesReference drives seeded random Map/Unmap sequences and
// holds every translation, every RegionOf answer and the order in which freed
// frames come back to a map-based reference model. The windows crowd regions
// into shared spans, map regions wider than a span (the 48 MiB master pool
// spans two or three) and reach both ends of the arena.
func TestPageTableMatchesReference(t *testing.T) {
	const spanPages = spanSize / PageSize
	arenaPages := int64(mmapSpan / PageSize)
	cases := []struct {
		name         string
		first, pages int64 // the placement window, in pages from mmapBase
		concurrent   bool
	}{
		{"arena-start", 0, 8 * spanPages, false},
		{"mid", 1000 * spanPages, 64 * spanPages, false},
		{"mid-concurrent", 77777 * spanPages, 64 * spanPages, true},
		{"arena-end", arenaPages - 8*spanPages, 8 * spanPages, false},
	}
	sizes := []uint64{1, 2, 16, spanPages / 2, spanPages + 1, 48 << 20 / PageSize}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			as := NewAddressSpace(1)
			as.rng = rand.New(&window{rng: rand.New(rand.NewSource(int64(ci) + 100)), first: tc.first, pages: tc.pages})
			if tc.concurrent {
				as.SetConcurrent()
			}
			ref := &refSpace{pfn: map[uint64]uint32{}, region: map[uint64]Region{}}
			var live, dead []Region
			var wide, shared, unmapShared bool
			sharesSpan := func(r Region) bool {
				for _, o := range live {
					if o != r && o.Base/spanSize <= (r.End()-1)/spanSize && r.Base/spanSize <= (o.End()-1)/spanSize {
						return true
					}
				}
				return false
			}
			for step := 0; step < 300; step++ {
				// Keep the window at most a third full, so a wide region
				// still finds room.
				pages := sizes[rng.Intn(len(sizes))]
				full := as.MappedBytes()+pages*PageSize > uint64(tc.pages)*PageSize/3
				if len(live) > 0 && (full || len(live) >= 10 || rng.Intn(3) == 0) {
					i := rng.Intn(len(live))
					r := live[i]
					unmapShared = unmapShared || sharesSpan(r)
					if err := as.Unmap(r); err != nil {
						t.Fatal(err)
					}
					ref.unmapRegion(r)
					live = append(live[:i], live[i+1:]...)
					dead = append(dead, r)
				} else {
					r, err := as.Map(pages * PageSize)
					if err != nil {
						t.Fatal(err)
					}
					ref.mapRegion(r)
					live = append(live, r)
					wide = wide || (r.End()-1)/spanSize != r.Base/spanSize
					shared = shared || sharesSpan(r)
				}
				if len(as.frames) != int(ref.next) {
					t.Fatalf("step %d: %d frames, reference has %d", step, len(as.frames), ref.next)
				}
				// The pages of every live region and of the last few unmapped
				// ones (all of them, or 64 at random from a large region
				// between full sweeps), and one byte either side of each.
				if len(dead) > 8 {
					dead = dead[len(dead)-8:]
				}
				for _, r := range append(live[:len(live):len(live)], dead...) {
					pages := r.Size / PageSize
					for i := uint64(0); i < pages && (i < 64 || step%25 == 0); i++ {
						page := i
						if pages > 64 && step%25 != 0 {
							page = uint64(rng.Int63n(int64(pages)))
						}
						if err := ref.check(as, r.Base+page*PageSize+uint64(rng.Intn(PageSize))); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
					for _, va := range []uint64{r.Base - 1, r.End()} {
						if err := ref.check(as, va); err != nil {
							t.Fatalf("step %d, edge of %+v: %v", step, r, err)
						}
					}
				}
			}
			if !wide || !shared || !unmapShared {
				t.Errorf("coverage: wide region %t, shared span %t, unmap in a shared span %t", wide, shared, unmapShared)
			}
		})
	}
}

// TestMapFootprint gates what the page table costs: a region pays for its
// own pages, not for the 32 MB of arena around it. Mapping a thousand
// sixteen-page regions at random allocates a few hundred bytes per region:
// the region record, its entries and the grown frame array.
func TestMapFootprint(t *testing.T) {
	const regions = 1000
	as := NewAddressSpace(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < regions; i++ {
		if _, err := as.Map(16 * PageSize); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / regions
	t.Logf("%d sixteen-page regions allocated %.0f B per region", regions, per)
	if per > 1024 {
		t.Errorf("allocated %.0f B per region, want <= 1024", per)
	}
}
