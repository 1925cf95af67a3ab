package nvmsim

import (
	"testing"
)

// A flip in a clean line must corrupt both views: the durable bytes decay,
// and the program's next load refills from media.
func TestFlipBitCleanLineHitsBothViews(t *testing.T) {
	m := newFakeMem(4 * LineBytes)
	d := NewDomain()
	d.AddPool(1, uint64(len(m.cache)))

	m.store(d, 0, []byte{0x00})
	d.CLWB(1, 0, m)
	d.SFence(m)
	before := d.Events()
	if !d.FlipBit(1, 0, 3, m) {
		t.Fatal("FlipBit on a mapped line reported failure")
	}
	if d.Events() != before+1 {
		t.Fatalf("FlipBit must be one numbered event: %d -> %d", before, d.Events())
	}
	if m.durable[0] != 1<<3 {
		t.Fatalf("durable byte = %#x, want %#x", m.durable[0], 1<<3)
	}
	if m.cache[0] != 1<<3 {
		t.Fatalf("clean-line flip must reach the cache view too: cache byte = %#x", m.cache[0])
	}
}

// A dirty line shields the program: the flip lands in the durable view
// only, and draining the newer content overwrites it.
func TestFlipBitDirtyLineShieldsCache(t *testing.T) {
	m := newFakeMem(2 * LineBytes)
	d := NewDomain()
	d.AddPool(1, uint64(len(m.cache)))

	m.store(d, 0, []byte{0xAA})
	d.FlipBit(1, 0, 0, m)
	if m.cache[0] != 0xAA {
		t.Fatalf("dirty-line flip must not touch the cache view: %#x", m.cache[0])
	}
	if m.durable[0] != 0x01 {
		t.Fatalf("durable view must still take the flip: %#x", m.durable[0])
	}
	d.CLWB(1, 0, m)
	d.SFence(m)
	if m.durable[0] != 0xAA {
		t.Fatalf("drained write-back must overwrite the flipped bit: %#x", m.durable[0])
	}
}
