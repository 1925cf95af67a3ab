// Package nvmsim models the volatile write-back cache that sits between a
// program's stores and the durable NVM cells (paper §2.1.3: persist =
// CLWB + SFENCE). Without it, every store would be durable the moment it
// executes and a missing flush or fence could never be observed.
//
// The model is line-granular (64-byte cache lines) and sits between two
// byte images that the host (internal/pmem) owns:
//
//   - the cache view: the pool bytes mapped into the simulated address
//     space, which every load and store operates on directly (caches are
//     coherent, so loads always see the newest store);
//   - the durable view: the backing bytes that survive a crash.
//
// A store marks its lines dirty (newer in cache than in NVM). A CLWB
// snapshots the line's current content and moves it in-flight: the
// write-back has *started*, but nothing is ordered yet. An SFENCE drains
// every in-flight snapshot to the durable view — that, and only that, is
// the durability point. At a crash, the dirty and in-flight lines are the
// volatile set; an adversarial Policy decides, line by line (and under
// torn-write policies word by word, matching the 8-byte store atomicity of
// the simulated machine), which of them reach durability anyway — modelling
// cache evictions and write-backs that happened to complete before power
// was lost.
//
// The Domain also numbers every store, CLWB and SFENCE as an event and can
// be armed to panic with a CrashSignal just before applying a chosen
// event, giving crash-injection engines (internal/crashtest) an
// instruction-granular crash point inside any library or structure
// operation.
package nvmsim

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// LineBytes is the cache-line size of the simulated machine.
const LineBytes = 64

// wordsPerLine is the number of 8-byte atomic units per line; survival
// masks carry one bit per word.
const wordsPerLine = LineBytes / 8

// Line names one cache line of one pool: the pool id and the line-aligned
// pool offset.
type Line struct {
	Pool uint32
	Off  uint32
}

func (l Line) String() string { return fmt.Sprintf("%d:%#x", l.Pool, l.Off) }

// Memory is the Domain's window onto the two byte images. The host
// (internal/pmem's Heap) implements it.
type Memory interface {
	// ReadCacheLine copies the line's current cache-view content into
	// dst. It reports false when the pool is no longer mapped.
	ReadCacheLine(pool, off uint32, dst *[LineBytes]byte) bool
	// WriteDurableWords writes the 8-byte words of src selected by mask
	// (bit i = word i) into the durable view of the line.
	WriteDurableWords(pool, off uint32, src *[LineBytes]byte, mask byte)
	// ReadDurableLine copies the line's durable-view content into dst. It
	// reports false when the pool is no longer mapped. The media-fault
	// injector uses it to flip bits in what actually survives a crash.
	ReadDurableLine(pool, off uint32, dst *[LineBytes]byte) bool
	// WriteCacheLine overwrites the line's cache-view content from src.
	// It reports false when the pool is no longer mapped. The media-fault
	// injector uses it to make a flip in a *clean* line visible to the
	// running program too: a clean line's next load refills from media.
	WriteCacheLine(pool, off uint32, src *[LineBytes]byte) bool
}

// CrashSignal is the panic payload thrown when an armed Domain reaches its
// crash point. Crash-injection engines recover it, apply a Policy via
// Heap.Crash, and proceed to reopen-and-verify.
type CrashSignal struct {
	// Event is the event index the crash preempted (the event did not
	// happen).
	Event uint64
	// Poisoned marks a secondary signal: the domain's armed crash already
	// fired (on this or another goroutine) and this event arrived at a
	// dead machine. Concurrent crash harnesses see one primary signal and
	// any number of poisoned ones.
	Poisoned bool
}

func (c *CrashSignal) String() string { return fmt.Sprintf("nvmsim: crash at event %d", c.Event) }

// AsCrashSignal extracts a CrashSignal from a recovered panic value.
func AsCrashSignal(r any) (*CrashSignal, bool) {
	c, ok := r.(*CrashSignal)
	return c, ok
}

// poolState tracks one pool's volatile lines in two bitmaps of one bit per
// line (compact enough for multi-megabyte pools): dirty (a store made the
// line newer in cache than in NVM) and inflight (a CLWB snapshot of the
// line waits in the domain's pending list for the next SFENCE). A line can
// be both: flushed, then stored to again.
type poolState struct {
	lines    uint32
	dirty    []uint64
	inflight []uint64
}

func setBit(b []uint64, line uint32)      { b[line/64] |= 1 << (line % 64) }
func clrBit(b []uint64, line uint32)      { b[line/64] &^= 1 << (line % 64) }
func hasBit(b []uint64, line uint32) bool { return b[line/64]&(1<<(line%64)) != 0 }

// pendingLine is one started write-back: the line's cache content at its
// CLWB, waiting for an SFENCE to make it durable.
type pendingLine struct {
	pool, off uint32
	data      [LineBytes]byte
}

// Domain is one persistence domain: the volatile cache state of every
// mapped pool plus the event counter used for crash-point injection.
//
// A CLWB costs O(1): it appends the line's snapshot to one dense pending
// list shared by all pools and sets the line's inflight bit. (Flushing a
// line that is still in flight searches the list from its tail instead;
// that takes a store to the line between two CLWBs with no fence, which
// the heap's commit paths almost never do.) An SFENCE drains the list in
// one pass, so it costs O(lines in flight), not O(pools mapped), and the
// list's backing array is reused by the next batch of CLWBs.
type Domain struct {
	// pools is indexed by pool id (hosts number pools densely from 1);
	// nil marks an id that is not mapped.
	pools         []*poolState
	pending       []pendingLine
	events        uint64
	armed         bool
	armAt         uint64
	poisonOnCrash bool
	// poisoned is read/written atomically: concurrent harness code checks
	// Poisoned() from worker goroutines that don't hold the host's event
	// lock (e.g. to classify an error as a casualty of the crash).
	poisoned uint32
	// flips holds armed media faults (see ArmFlip), sorted by event index.
	flips []armedFlip
}

// NewDomain returns an empty persistence domain.
func NewDomain() *Domain { return &Domain{} }

// pool returns the state of a mapped pool, or nil.
func (d *Domain) pool(id uint32) *poolState {
	if int(id) < len(d.pools) {
		return d.pools[id]
	}
	return nil
}

// AddPool starts tracking a pool of the given byte size. Mapping is clean:
// cache and durable views agree at that instant.
func (d *Domain) AddPool(pool uint32, size uint64) {
	lines := uint32((size + LineBytes - 1) / LineBytes)
	words := (lines + 63) / 64
	for int(pool) >= len(d.pools) {
		d.pools = append(d.pools, nil)
	}
	d.pools[pool] = &poolState{
		lines:    lines,
		dirty:    make([]uint64, words),
		inflight: make([]uint64, words),
	}
}

// DropPool stops tracking a pool (it was unmapped; the host has already
// decided what became of its bytes).
func (d *Domain) DropPool(pool uint32) {
	if d.pool(pool) != nil {
		d.dropPending(pool)
		d.pools[pool] = nil
	}
}

// Clean discards a pool's volatile state without unmapping it: the host
// just synced the cache view to the durable view wholesale (pool creation,
// bulk load), so nothing is newer in cache any more.
func (d *Domain) Clean(pool uint32) {
	ps := d.pool(pool)
	if ps == nil {
		return
	}
	clear(ps.dirty)
	clear(ps.inflight)
	d.dropPending(pool)
}

// dropPending removes a pool's snapshots from the pending list.
func (d *Domain) dropPending(pool uint32) {
	kept := d.pending[:0]
	for i := range d.pending {
		if d.pending[i].pool != pool {
			kept = append(kept, d.pending[i])
		}
	}
	d.pending = kept
}

// step numbers one event and, when armed, crashes just before applying it.
// Armed media faults (ArmFlip) land first: a flip scheduled at event i hits
// the media just before event i is applied, so a crash armed at the same
// index observes the corrupted bytes — exactly the ordering a replay token
// that covers both must reproduce.
func (d *Domain) step() {
	if atomic.LoadUint32(&d.poisoned) != 0 {
		panic(&CrashSignal{Event: d.events, Poisoned: true})
	}
	for len(d.flips) > 0 && d.flips[0].at <= d.events {
		af := d.flips[0]
		d.flips = d.flips[1:]
		d.applyFlip(af.f, af.mem)
	}
	if d.armed && d.events == d.armAt {
		d.armed = false
		if d.poisonOnCrash {
			atomic.StoreUint32(&d.poisoned, 1)
		}
		panic(&CrashSignal{Event: d.armAt})
	}
	d.events++
}

// SetPoisonOnCrash controls what happens after an armed crash fires. Off
// (the default, matching the sequential harnesses), the domain keeps
// running — the one goroutine that caught the signal owns what happens
// next. On, the domain is poisoned: power is off, so every later event —
// from any goroutine that raced past the crash point — panics with a
// secondary (Poisoned) signal instead of mutating state that no real
// machine could have touched. Concurrent harnesses need this, because the
// crashing worker cannot stop its peers any other way. Disarm and Crash
// lift the poisoning.
func (d *Domain) SetPoisonOnCrash(on bool) { d.poisonOnCrash = on }

// Events returns the number of events applied so far.
func (d *Domain) Events() uint64 { return d.events }

// Arm schedules a crash just before event index at (as numbered from the
// Domain's creation, see Events). The panic carries a *CrashSignal.
func (d *Domain) Arm(at uint64) { d.armed, d.armAt = true, at }

// Disarm cancels a pending Arm and lifts any poisoning, so the domain can
// keep running after a recovered crash (the sequential harnesses recover
// and verify on the same domain).
func (d *Domain) Disarm() {
	d.armed = false
	atomic.StoreUint32(&d.poisoned, 0)
}

// Poisoned reports whether an armed crash has fired and the domain is dead.
// Safe to call from any goroutine.
func (d *Domain) Poisoned() bool { return atomic.LoadUint32(&d.poisoned) != 0 }

// Store records a store of size bytes at a pool offset: one event, and the
// covered lines become dirty.
func (d *Domain) Store(pool, off, size uint32) {
	d.step()
	ps := d.pool(pool)
	if ps == nil || size == 0 {
		return
	}
	for line := off / LineBytes; line <= (off+size-1)/LineBytes && line < ps.lines; line++ {
		setBit(ps.dirty, line)
	}
}

// CLWB records a cache-line write-back: one event; if the line is dirty its
// current cache content is snapshotted in-flight (write-back started, not
// yet ordered). A clean-line CLWB is a no-op, as on hardware.
func (d *Domain) CLWB(pool, off uint32, mem Memory) {
	d.step()
	ps := d.pool(pool)
	if ps == nil {
		return
	}
	line := off / LineBytes
	if line >= ps.lines || !hasBit(ps.dirty, line) {
		return
	}
	d.snapshot(pool, ps, line, mem)
}

// CLWBRange records one cache-line write-back per line covering
// [off, off+size): event-for-event identical to calling CLWB on each
// covered line (so armed crash points land at the same event indices),
// but the pool resolves once per call instead of once per line. Hosts on
// a hot commit path use this to amortize per-line overhead.
func (d *Domain) CLWBRange(pool, off, size uint32, mem Memory) {
	if size == 0 {
		return
	}
	ps := d.pool(pool)
	first := off / LineBytes
	last := (off + size - 1) / LineBytes
	for line := first; line <= last; line++ {
		d.step()
		if ps == nil || line >= ps.lines || !hasBit(ps.dirty, line) {
			continue
		}
		d.snapshot(pool, ps, line, mem)
	}
}

// snapshot captures a dirty line's cache content in-flight. A line that is
// already in flight (flushed, stored to again, flushed again before a
// fence) has its pending entry overwritten in place, so the fence drains
// the newest snapshot and the list holds each line at most once.
func (d *Domain) snapshot(pool uint32, ps *poolState, line uint32, mem Memory) {
	off := line * LineBytes
	i := len(d.pending)
	if hasBit(ps.inflight, line) {
		for i--; d.pending[i].pool != pool || d.pending[i].off != off; i-- {
		}
	} else {
		d.pending = append(d.pending, pendingLine{pool: pool, off: off})
	}
	if !mem.ReadCacheLine(pool, off, &d.pending[i].data) {
		if !hasBit(ps.inflight, line) {
			d.pending = d.pending[:i] // nothing captured: the pool is gone
		}
		return
	}
	clrBit(ps.dirty, line)
	setBit(ps.inflight, line)
}

// SFence records a store fence: one event, and every in-flight snapshot in
// the domain drains to the durable view. Lines re-dirtied after their CLWB
// stay dirty — the fence ordered the snapshot, not the newer stores.
func (d *Domain) SFence(mem Memory) {
	d.step()
	for i := range d.pending {
		p := &d.pending[i]
		mem.WriteDurableWords(p.pool, p.off, &p.data, 0xFF)
		clrBit(d.pools[p.pool].inflight, p.off/LineBytes)
	}
	d.pending = d.pending[:0]
}

// VolatileLines counts the lines currently newer in cache than in NVM
// (dirty or in-flight) across all pools.
func (d *Domain) VolatileLines() int {
	n := 0
	for _, ps := range d.pools {
		if ps == nil {
			continue
		}
		for i, w := range ps.dirty {
			n += bits.OnesCount64(w | ps.inflight[i])
		}
	}
	return n
}

// volatileSet returns every volatile line sorted by (pool, offset), so
// seeded policies consume randomness in a deterministic order. A line
// both in flight and re-dirtied appears once.
func (d *Domain) volatileSet() []Line {
	var lines []Line
	for pool, ps := range d.pools {
		if ps == nil {
			continue
		}
		for wi, w := range ps.dirty {
			w |= ps.inflight[wi]
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				lines = append(lines, Line{Pool: uint32(pool), Off: (uint32(wi)*64 + uint32(b)) * LineBytes})
			}
		}
	}
	return lines
}

// Crash loses power: the policy decides which volatile lines (and which
// 8-byte words of them) reach the durable view anyway; everything else is
// gone. All volatile state is discarded. The report records the exact
// survivor set so the outcome can be replayed with an Explicit policy.
func (d *Domain) Crash(pol Policy, mem Memory) Report {
	atomic.StoreUint32(&d.poisoned, 0) // power-cycling revives the machine
	lines := d.volatileSet()
	rng := newRng(pol.Seed)
	rep := Report{Kind: pol.Kind, Seed: pol.Seed, Volatile: len(lines)}
	var buf [LineBytes]byte
	for _, ln := range lines {
		mask := pol.mask(ln, &rng)
		if mask == 0 {
			rep.Dropped = append(rep.Dropped, ln)
			continue
		}
		if !mem.ReadCacheLine(ln.Pool, ln.Off, &buf) {
			rep.Dropped = append(rep.Dropped, ln)
			continue
		}
		mem.WriteDurableWords(ln.Pool, ln.Off, &buf, mask)
		rep.Kept = append(rep.Kept, LineOutcome{Line: ln, Mask: mask})
	}
	for _, ps := range d.pools {
		if ps != nil {
			clear(ps.dirty)
			clear(ps.inflight)
		}
	}
	d.pending = d.pending[:0]
	return rep
}
