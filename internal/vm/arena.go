package vm

import "fmt"

// Arena is a simple bump allocator over a mapped region. The emitter uses
// one for the program's volatile globals (the software-translation hash
// table, the last-value-predictor variables, stack temporaries) so that
// BASE-mode translation code touches real, cacheable addresses.
type Arena struct {
	as     *AddressSpace
	region Region
	next   uint64
}

// NewArena maps size bytes and returns an allocator over the mapping.
func NewArena(as *AddressSpace, size uint64) (*Arena, error) {
	r, err := as.Map(size)
	if err != nil {
		return nil, err
	}
	return &Arena{as: as, region: r, next: r.Base}, nil
}

// Alloc returns the virtual address of a fresh block of size bytes with the
// requested power-of-two alignment.
func (a *Arena) Alloc(size, align uint64) (uint64, error) {
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("vm: alignment %d is not a power of two", align)
	}
	base := (a.next + align - 1) &^ (align - 1)
	if base+size > a.region.End() {
		return 0, fmt.Errorf("vm: arena exhausted (%d bytes requested)", size)
	}
	a.next = base + size
	return base, nil
}
