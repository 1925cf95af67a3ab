package nvmsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refDomain is the reference model of the write-back cache: the semantics
// the Domain had when it kept each pool's in-flight snapshots in a map
// keyed by line offset. It is slow and obviously right; the equivalence
// test below holds the Domain to it event for event.
type refDomain struct {
	pools  map[uint32]*refPool
	events uint64
}

type refPool struct {
	lines    uint32
	dirty    map[uint32]bool             // line index
	inflight map[uint32]*[LineBytes]byte // line offset → CLWB-time snapshot
}

func newRefDomain() *refDomain { return &refDomain{pools: make(map[uint32]*refPool)} }

func (d *refDomain) AddPool(pool uint32, size uint64) {
	d.pools[pool] = &refPool{
		lines:    uint32((size + LineBytes - 1) / LineBytes),
		dirty:    make(map[uint32]bool),
		inflight: make(map[uint32]*[LineBytes]byte),
	}
}

func (d *refDomain) DropPool(pool uint32) { delete(d.pools, pool) }

func (d *refDomain) Clean(pool uint32) {
	if ps, ok := d.pools[pool]; ok {
		ps.dirty = make(map[uint32]bool)
		ps.inflight = make(map[uint32]*[LineBytes]byte)
	}
}

func (d *refDomain) Store(pool, off, size uint32) {
	d.events++
	ps, ok := d.pools[pool]
	if !ok || size == 0 {
		return
	}
	for line := off / LineBytes; line <= (off+size-1)/LineBytes && line < ps.lines; line++ {
		ps.dirty[line] = true
	}
}

func (d *refDomain) CLWB(pool, off uint32, mem Memory) {
	d.events++
	ps, ok := d.pools[pool]
	if !ok {
		return
	}
	line := off / LineBytes
	if line >= ps.lines || !ps.dirty[line] {
		return
	}
	buf, ok := ps.inflight[line*LineBytes]
	if !ok {
		buf = new([LineBytes]byte)
		ps.inflight[line*LineBytes] = buf
	}
	if mem.ReadCacheLine(pool, line*LineBytes, buf) {
		delete(ps.dirty, line)
	}
}

func (d *refDomain) CLWBRange(pool, off, size uint32, mem Memory) {
	if size == 0 {
		return
	}
	for line := off / LineBytes; line <= (off+size-1)/LineBytes; line++ {
		d.CLWB(pool, line*LineBytes, mem)
	}
}

func (d *refDomain) SFence(mem Memory) {
	d.events++
	for pool, ps := range d.pools {
		for off, buf := range ps.inflight {
			mem.WriteDurableWords(pool, off, buf, 0xFF)
		}
		ps.inflight = make(map[uint32]*[LineBytes]byte)
	}
}

func (d *refDomain) volatileSet() []Line {
	var lines []Line
	for pool, ps := range d.pools {
		for line := range ps.dirty {
			lines = append(lines, Line{Pool: pool, Off: line * LineBytes})
		}
		for off := range ps.inflight {
			if !ps.dirty[off/LineBytes] {
				lines = append(lines, Line{Pool: pool, Off: off})
			}
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].Pool != lines[j].Pool {
			return lines[i].Pool < lines[j].Pool
		}
		return lines[i].Off < lines[j].Off
	})
	return lines
}

func (d *refDomain) VolatileLines() int { return len(d.volatileSet()) }

func (d *refDomain) Crash(pol Policy, mem Memory) Report {
	lines := d.volatileSet()
	rng := newRng(pol.Seed)
	rep := Report{Kind: pol.Kind, Seed: pol.Seed, Volatile: len(lines)}
	var buf [LineBytes]byte
	for _, ln := range lines {
		mask := pol.mask(ln, &rng)
		if mask == 0 || !mem.ReadCacheLine(ln.Pool, ln.Off, &buf) {
			rep.Dropped = append(rep.Dropped, ln)
			continue
		}
		mem.WriteDurableWords(ln.Pool, ln.Off, &buf, mask)
		rep.Kept = append(rep.Kept, LineOutcome{Line: ln, Mask: mask})
	}
	for pool := range d.pools {
		d.Clean(pool)
	}
	return rep
}

func (d *refDomain) FlipBit(pool, off uint32, bit uint16, mem Memory) bool {
	d.events++
	off &^= LineBytes - 1
	bit %= LineBytes * 8
	var buf [LineBytes]byte
	if !mem.ReadDurableLine(pool, off, &buf) {
		return false
	}
	buf[bit/8] ^= 1 << (bit % 8)
	mem.WriteDurableWords(pool, off, &buf, 0xFF)
	ps, ok := d.pools[pool]
	if !ok {
		return true
	}
	if line := off / LineBytes; line >= ps.lines || ps.dirty[line] {
		return true
	}
	if _, inflight := ps.inflight[off]; inflight {
		return true
	}
	if !mem.ReadCacheLine(pool, off, &buf) {
		return true
	}
	buf[bit/8] ^= 1 << (bit % 8)
	mem.WriteCacheLine(pool, off, &buf)
	return true
}

// poolMem is a multi-pool two-image memory. An unmapped pool keeps its
// durable bytes (they are what a later remap starts from) but refuses
// every access, as the heap does.
type poolMem struct {
	pools map[uint32]*poolImage
}

type poolImage struct {
	mapped         bool
	cache, durable []byte
}

func newPoolMem() *poolMem { return &poolMem{pools: make(map[uint32]*poolImage)} }

// mapPool maps a pool clean: the cache view starts as the durable bytes.
func (m *poolMem) mapPool(pool uint32, size int) {
	img, ok := m.pools[pool]
	if !ok {
		img = &poolImage{durable: make([]byte, size)}
		m.pools[pool] = img
	}
	img.mapped = true
	img.cache = append([]byte(nil), img.durable...)
}

func (m *poolMem) line(pool, off uint32) *poolImage {
	img, ok := m.pools[pool]
	if !ok || !img.mapped || int(off)+LineBytes > len(img.durable) {
		return nil
	}
	return img
}

func (m *poolMem) ReadCacheLine(pool, off uint32, dst *[LineBytes]byte) bool {
	img := m.line(pool, off)
	if img == nil {
		return false
	}
	copy(dst[:], img.cache[off:])
	return true
}

func (m *poolMem) WriteDurableWords(pool, off uint32, src *[LineBytes]byte, mask byte) {
	img := m.line(pool, off)
	if img == nil {
		return
	}
	for w := 0; w < wordsPerLine; w++ {
		if mask&(1<<w) != 0 {
			copy(img.durable[int(off)+w*8:int(off)+w*8+8], src[w*8:w*8+8])
		}
	}
}

func (m *poolMem) ReadDurableLine(pool, off uint32, dst *[LineBytes]byte) bool {
	img := m.line(pool, off)
	if img == nil {
		return false
	}
	copy(dst[:], img.durable[off:])
	return true
}

func (m *poolMem) WriteCacheLine(pool, off uint32, src *[LineBytes]byte) bool {
	img := m.line(pool, off)
	if img == nil {
		return false
	}
	copy(img.cache[off:], src[:])
	return true
}

// domain is what the Domain and the reference model have in common.
type domain interface {
	AddPool(pool uint32, size uint64)
	DropPool(pool uint32)
	Clean(pool uint32)
	Store(pool, off, size uint32)
	CLWB(pool, off uint32, mem Memory)
	CLWBRange(pool, off, size uint32, mem Memory)
	SFence(mem Memory)
	FlipBit(pool, off uint32, bit uint16, mem Memory) bool
	Crash(pol Policy, mem Memory) Report
	VolatileLines() int
	Events() uint64
}

func (d *refDomain) Events() uint64 { return d.events }

// world is one side of the equivalence: a domain (reference or real) and
// the memory it drains into.
type world struct {
	mem *poolMem
	d   domain
}

// equivOp is one step applied to both worlds. apply returns the Crash
// report, or nil for a step that does not crash.
type equivOp struct {
	name  string
	apply func(w *world) *Report
}

// genOp draws one random step over the pools currently known to the
// generator. live holds the mapped pool ids, sizes every pool ever added.
func genOp(r *rand.Rand, live map[uint32]bool, sizes map[uint32]int, maxPools int) equivOp {
	ids := make([]uint32, 0, len(sizes))
	for id := range sizes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Any known pool, mapped or not: operations on an unmapped pool must
	// be numbered events with no effect in both worlds.
	pick := func() uint32 {
		if len(ids) == 0 {
			return 1
		}
		return ids[r.Intn(len(ids))]
	}
	offIn := func(pool uint32) uint32 { return uint32(r.Intn(sizes[pool] + LineBytes)) }

	switch k := r.Intn(100); {
	case k < 4 || len(live) == 0:
		pool := uint32(len(sizes) + 1)
		if len(sizes) >= maxPools {
			pool = pick()
			if live[pool] { // the host never maps a pool twice
				return fenceOp
			}
		}
		size, ok := sizes[pool]
		if !ok {
			size = LineBytes*(1+r.Intn(12)) - r.Intn(2)*r.Intn(LineBytes)
			sizes[pool] = size
		}
		live[pool] = true
		return equivOp{fmt.Sprintf("AddPool(%d, %d)", pool, size), func(w *world) *Report {
			w.mem.mapPool(pool, size)
			w.d.AddPool(pool, uint64(size))
			return nil
		}}
	case k < 6:
		pool := pick()
		delete(live, pool)
		return equivOp{fmt.Sprintf("DropPool(%d)", pool), func(w *world) *Report {
			if img := w.mem.pools[pool]; img != nil {
				img.mapped = false
			}
			w.d.DropPool(pool)
			return nil
		}}
	case k < 8:
		pool := pick()
		return equivOp{fmt.Sprintf("Clean(%d)", pool), func(w *world) *Report {
			// The host syncs the cache view to the durable view first.
			if img := w.mem.pools[pool]; img != nil && img.mapped {
				copy(img.durable, img.cache)
			}
			w.d.Clean(pool)
			return nil
		}}
	case k < 40:
		pool := pick()
		off := offIn(pool)
		size := uint32(r.Intn(2 * LineBytes))
		val := byte(r.Intn(256))
		return equivOp{fmt.Sprintf("Store(%d, %#x, %d) = %#x", pool, off, size, val), func(w *world) *Report {
			w.d.Store(pool, off, size)
			if img := w.mem.pools[pool]; img != nil && img.mapped {
				for i := off; i < off+size && int(i) < len(img.cache); i++ {
					img.cache[i] = val
				}
			}
			return nil
		}}
	case k < 62:
		pool := pick()
		off := offIn(pool)
		return equivOp{fmt.Sprintf("CLWB(%d, %#x)", pool, off), func(w *world) *Report {
			w.d.CLWB(pool, off, w.mem)
			return nil
		}}
	case k < 74:
		pool := pick()
		off := offIn(pool)
		size := uint32(r.Intn(4 * LineBytes))
		return equivOp{fmt.Sprintf("CLWBRange(%d, %#x, %d)", pool, off, size), func(w *world) *Report {
			w.d.CLWBRange(pool, off, size, w.mem)
			return nil
		}}
	case k < 88:
		return fenceOp
	case k < 95:
		pool := pick()
		off := offIn(pool)
		bit := uint16(r.Intn(LineBytes * 8))
		return equivOp{fmt.Sprintf("FlipBit(%d, %#x, %d)", pool, off, bit), func(w *world) *Report {
			w.d.FlipBit(pool, off, bit, w.mem)
			return nil
		}}
	}
	return crashOp(r, sizes)
}

// crashOp draws a Crash under keep-random, torn or explicit. The explicit
// survivor set is random lines of the known pools, so it keeps some
// volatile lines, misses others and names some clean ones.
func crashOp(r *rand.Rand, sizes map[uint32]int) equivOp {
	var pol Policy
	switch r.Intn(3) {
	case 0:
		pol = KeepRandomPolicy(r.Uint64())
	case 1:
		pol = TornPolicy(r.Uint64())
	default:
		keep := make(map[Line]byte)
		for pool, size := range sizes {
			for off := 0; off < size; off += LineBytes {
				if r.Intn(3) == 0 {
					keep[Line{Pool: pool, Off: uint32(off)}] = byte(r.Intn(256))
				}
			}
		}
		pol = ExplicitPolicy(keep)
	}
	return equivOp{fmt.Sprintf("Crash(%v)", pol.Kind), func(w *world) *Report {
		rep := w.d.Crash(pol, w.mem)
		// Power comes back: every mapped pool reloads from media.
		for _, img := range w.mem.pools {
			if img.mapped {
				copy(img.cache, img.durable)
			}
		}
		return &rep
	}}
}

var fenceOp = equivOp{"SFence", func(w *world) *Report {
	w.d.SFence(w.mem)
	return nil
}}

// redirtyBeforeFence is the directed prefix every run starts with: one
// line flushed, re-dirtied and flushed again before a single fence, so the
// durable view must end up with the second snapshot, and a second line
// flushed and then re-dirtied, so the fence must drain the CLWB-time
// snapshot and not the newer cache bytes.
func redirtyBeforeFence(pool uint32) []equivOp {
	store := func(off uint32, val byte) equivOp {
		return equivOp{fmt.Sprintf("Store(%d, %#x, 8) = %#x", pool, off, val), func(w *world) *Report {
			w.d.Store(pool, off, 8)
			copy(w.mem.pools[pool].cache[off:off+8], bytes.Repeat([]byte{val}, 8))
			return nil
		}}
	}
	clwb := func(off uint32) equivOp {
		return equivOp{fmt.Sprintf("CLWB(%d, %#x)", pool, off), func(w *world) *Report {
			w.d.CLWB(pool, off, w.mem)
			return nil
		}}
	}
	return []equivOp{
		store(0, 0x11), clwb(0), store(0, 0x22), clwb(0),
		store(LineBytes, 0x33), clwb(LineBytes), store(LineBytes, 0x44),
		fenceOp,
	}
}

// TestDomainMatchesReference drives the Domain and the reference model
// with the same seeded random sequences of every domain operation, over
// one pool and over forty, and after every step demands equal event
// counts, volatile-line counts, durable and cache bytes, and Crash
// reports.
func TestDomainMatchesReference(t *testing.T) {
	for _, maxPools := range []int{1, 40} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("pools=%d/seed=%d", maxPools, seed), func(t *testing.T) {
				ref := &world{mem: newPoolMem(), d: newRefDomain()}
				dom := &world{mem: newPoolMem(), d: NewDomain()}
				r := rand.New(rand.NewSource(seed))
				live, sizes := map[uint32]bool{1: true}, map[uint32]int{1: 8 * LineBytes}
				ops := []equivOp{{"AddPool(1, 512)", func(w *world) *Report {
					w.mem.mapPool(1, 8*LineBytes)
					w.d.AddPool(1, 8*LineBytes)
					return nil
				}}}
				ops = append(ops, redirtyBeforeFence(1)...)
				for len(ops) < 3000 {
					ops = append(ops, genOp(r, live, sizes, maxPools))
				}
				for i, op := range ops {
					repRef, repDom := op.apply(ref), op.apply(dom)
					where := fmt.Sprintf("step %d %s", i, op.name)
					if a, b := ref.d.Events(), dom.d.Events(); a != b {
						t.Fatalf("%s: events %d, reference %d", where, b, a)
					}
					if a, b := ref.d.VolatileLines(), dom.d.VolatileLines(); a != b {
						t.Fatalf("%s: %d volatile lines, reference %d", where, b, a)
					}
					if !reflect.DeepEqual(repRef, repDom) {
						t.Fatalf("%s: report %+v, reference %+v", where, repDom, repRef)
					}
					for id, img := range ref.mem.pools {
						other := dom.mem.pools[id]
						if !bytes.Equal(img.durable, other.durable) {
							t.Fatalf("%s: pool %d durable bytes differ from the reference", where, id)
						}
						if !bytes.Equal(img.cache, other.cache) {
							t.Fatalf("%s: pool %d cache bytes differ from the reference", where, id)
						}
					}
				}
			})
		}
	}
}

// TestEquivalenceCoversRedirty checks that the directed prefix really
// exercises what it claims: after it, line 0 holds the second snapshot and
// line 1 the CLWB-time snapshot while staying volatile.
func TestEquivalenceCoversRedirty(t *testing.T) {
	w := &world{mem: newPoolMem(), d: NewDomain()}
	w.mem.mapPool(1, 8*LineBytes)
	w.d.AddPool(1, 8*LineBytes)
	for _, op := range redirtyBeforeFence(1) {
		op.apply(w)
	}
	durable := w.mem.pools[1].durable
	if durable[0] != 0x22 || durable[LineBytes] != 0x33 {
		t.Fatalf("durable = %#x %#x, want 0x22 0x33", durable[0], durable[LineBytes])
	}
	if got := w.d.VolatileLines(); got != 1 {
		t.Fatalf("%d volatile lines, want the re-dirtied line only", got)
	}
}
