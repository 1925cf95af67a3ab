package nvmsim

// Media faults. A Flip names one bit of one durable line (pmem records the
// flips it injects as Flips); the Domain applies one with FlipBit, and each
// application is a numbered event, so replay tokens cover corruption points
// exactly like crash points.
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

// FlipBit flips one bit of one durable line right now, and when the line
// is clean, the same bit of its cache view. It is one numbered event: the
// event counter steps first, so an armed crash at this index preempts the
// flip and a replay token recorded here reproduces it. It reports whether
// the line existed.
func (d *Domain) FlipBit(pool, off uint32, bit uint16, mem Memory) bool {
	d.step()
	off &= ^uint32(LineBytes - 1)
	bit %= LineBytes * 8
	var buf [LineBytes]byte
	if !mem.ReadDurableLine(pool, off, &buf) {
		return false
	}
	buf[bit/8] ^= 1 << (bit % 8)
	mem.WriteDurableWords(pool, off, &buf, 0xFF)
	ps := d.pool(pool)
	if ps == nil {
		return true
	}
	line := off / LineBytes
	if line >= ps.lines || hasBit(ps.dirty, line) || hasBit(ps.inflight, line) {
		return true
	}
	if !mem.ReadCacheLine(pool, off, &buf) {
		return true
	}
	buf[bit/8] ^= 1 << (bit % 8)
	mem.WriteCacheLine(pool, off, &buf)
	return true
}
