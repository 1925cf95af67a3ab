package nvmsim

import "sort"

// Media faults. A Flip names one bit of one durable line; the Domain can
// apply it immediately (FlipBit, CorruptLines — each application is a
// numbered event, so replay tokens cover corruption points exactly like
// crash points) or arm it to fire just before a chosen event index
// (ArmFlip, which composes with Arm to crash into freshly corrupted
// media).
//
// A flip always lands in the durable view — that is what "media fault"
// means. When the affected line is clean (not dirty, no in-flight
// snapshot), the cache view is rewritten too: a clean line's next load
// refills from media, so the running program observes the corruption. A
// dirty or in-flight line shields the program until its newer content
// drains, overwriting the flipped bit — also what real hardware does.
//
// Whether a flip is *detectable* is the host's business, not the
// Domain's: internal/pmem layers CRC32C checksums and XOR parity on top
// and distinguishes detect-mode targets (object payloads, caught by
// VerifyOnRead) from silent-mode targets (checksum words, parity lines —
// only a scrub notices).

// Flip names a single-bit media fault: one bit (0..511) of one line.
type Flip struct {
	Line Line
	Bit  uint16
}

// armedFlip is a Flip scheduled to land just before a chosen event.
type armedFlip struct {
	at  uint64
	f   Flip
	mem Memory
}

// applyFlip XORs the bit into the durable view and, when the line is
// clean, into the cache view. It reports whether the line existed.
func (d *Domain) applyFlip(f Flip, mem Memory) bool {
	var buf [LineBytes]byte
	if !mem.ReadDurableLine(f.Line.Pool, f.Line.Off, &buf) {
		return false
	}
	buf[f.Bit/8] ^= 1 << (f.Bit % 8)
	mem.WriteDurableWords(f.Line.Pool, f.Line.Off, &buf, 0xFF)
	ps := d.pool(f.Line.Pool)
	if ps == nil {
		return true
	}
	line := f.Line.Off / LineBytes
	if line >= ps.lines || hasBit(ps.dirty, line) || hasBit(ps.inflight, line) {
		return true
	}
	if !mem.ReadCacheLine(f.Line.Pool, f.Line.Off, &buf) {
		return true
	}
	buf[f.Bit/8] ^= 1 << (f.Bit % 8)
	mem.WriteCacheLine(f.Line.Pool, f.Line.Off, &buf)
	return true
}

// FlipBit flips one bit of one durable line right now. It is one numbered
// event: the event counter steps first, so an armed crash at this index
// preempts the flip and a replay token recorded here reproduces it.
func (d *Domain) FlipBit(pool, off uint32, bit uint16, mem Memory) bool {
	d.step()
	return d.applyFlip(Flip{Line: Line{Pool: pool, Off: off & ^uint32(LineBytes-1)}, Bit: bit % (LineBytes * 8)}, mem)
}

// CorruptLines flips n random bits across the mapped pools, each flip one
// numbered event, and returns the flips applied. The same seed over the
// same pool set yields the same flips (pools are visited in sorted id
// order; the generator is the replay-stable splitmix64).
func (d *Domain) CorruptLines(n int, seed uint64, mem Memory) []Flip {
	var ids []uint32
	for id, ps := range d.pools {
		if ps != nil {
			ids = append(ids, uint32(id))
		}
	}
	if len(ids) == 0 || n <= 0 {
		return nil
	}
	r := newRng(seed)
	flips := make([]Flip, 0, n)
	for len(flips) < n {
		id := ids[r.next()%uint64(len(ids))]
		ps := d.pools[id]
		if ps.lines == 0 {
			continue
		}
		f := Flip{
			Line: Line{Pool: id, Off: uint32(r.next()%uint64(ps.lines)) * LineBytes},
			Bit:  uint16(r.next() % (LineBytes * 8)),
		}
		if d.FlipBit(f.Line.Pool, f.Line.Off, f.Bit, mem) {
			flips = append(flips, f)
		}
	}
	return flips
}

// ArmFlip schedules f to land just before event index at (compare Arm).
// The arming itself is not an event and the armed flip's application is
// not one either — the media decays between instructions, it does not
// execute one. Multiple flips may be armed; same-index flips land in
// arming order.
func (d *Domain) ArmFlip(at uint64, f Flip, mem Memory) {
	f.Line.Off &= ^uint32(LineBytes - 1)
	f.Bit %= LineBytes * 8
	d.flips = append(d.flips, armedFlip{at: at, f: f, mem: mem})
	sort.SliceStable(d.flips, func(i, j int) bool { return d.flips[i].at < d.flips[j].at })
}

// ArmedFlips reports how many armed flips have not yet landed.
func (d *Domain) ArmedFlips() int { return len(d.flips) }
