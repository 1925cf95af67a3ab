package cluster

import (
	"slices"
	"sort"

	"potgo/internal/potserve"
)

// opChunkLen is the number of entries one opChunk holds.
const opChunkLen = 1024

// opChunk holds opChunkLen consecutive log entries as columns: each entry's
// key and value, and one bit per entry saying whether it is a delete.
type opChunk struct {
	key [opChunkLen]uint64
	val [opChunkLen]uint64
	del [opChunkLen / 64]uint64
}

// epochRun stamps the entries from Seq start up to the next run's start with
// the epochs they were applied under: the entry's own epoch, the epoch its
// sender claimed, and the applying node's epoch. A run begins only where one
// of the three changes, which outside failover and catch-up is never.
type epochRun struct {
	start                uint64
	epoch, sender, local uint64
}

// opLog is one origin's applied log on one node. It stores only what varies
// per entry — key, value and the delete bit, in fixed opChunkLen-entry
// chunks — and derives the rest: an entry's Seq is its index plus one, its
// origin is the log's, and its three epochs come from the run table. The
// log's end is the origin's applied watermark; its base is the compaction
// floor, and trimming releases whole chunks below it. The owning Node's mu
// guards every field.
type opLog struct {
	origin uint32
	// base is the compaction floor: entries with Seq <= base are discarded.
	base uint64
	// end is the Seq of the last entry, the applied watermark.
	end uint64
	// chunks[0] holds the entries from index base/opChunkLen*opChunkLen on.
	chunks []*opChunk
	// runs is ordered by start; runs[0] covers the entry at Seq base+1.
	runs []epochRun
}

// append adds e as the log's next entry, applied with the given sender and
// local epochs. The caller guarantees e.Seq == end+1.
func (l *opLog) append(e potserve.RepEntry, sender, local uint64) {
	i := l.end
	if i%opChunkLen == 0 {
		l.chunks = append(l.chunks, new(opChunk))
	}
	c, j := l.chunks[len(l.chunks)-1], i%opChunkLen
	c.key[j], c.val[j] = e.Key, e.Val
	if e.Del {
		c.del[j/64] |= 1 << (j % 64)
	}
	if r := len(l.runs) - 1; r < 0 || l.runs[r].epoch != e.Epoch || l.runs[r].sender != sender || l.runs[r].local != local {
		l.runs = append(l.runs, epochRun{start: i + 1, epoch: e.Epoch, sender: sender, local: local})
	}
	l.end++
}

// trim discards the entries with Seq <= below (clamped to the end) and
// releases every chunk that now lies wholly below the floor.
func (l *opLog) trim(below uint64) {
	below = min(below, l.end)
	if below <= l.base {
		return
	}
	drop := below/opChunkLen - l.base/opChunkLen
	clear(l.chunks[:drop])
	l.chunks = l.chunks[drop:]
	l.base = below
	l.runs = l.runs[l.runAt(below+1):]
}

// runAt returns the index of the run holding Seq seq: the last run starting
// at or before it.
func (l *opLog) runAt(seq uint64) int {
	return sort.Search(len(l.runs), func(k int) bool { return l.runs[k].start > seq }) - 1
}

// each calls fn on the entries with Seq in (from, to], in order, where
// base <= from and to <= end. The run table is searched once per call and
// then followed entry by entry.
func (l *opLog) each(from, to uint64, fn func(Applied)) {
	if from >= to {
		return
	}
	r := l.runAt(from + 1)
	first := l.base / opChunkLen * opChunkLen
	for i := from; i < to; i++ {
		if r+1 < len(l.runs) && l.runs[r+1].start == i+1 {
			r++
		}
		c, j, run := l.chunks[(i-first)/opChunkLen], i%opChunkLen, &l.runs[r]
		fn(Applied{
			RepEntry: potserve.RepEntry{
				Seq: i + 1, Epoch: run.epoch, Key: c.key[j], Val: c.val[j],
				Del: c.del[j/64]>>(j%64)&1 != 0,
			},
			Origin: l.origin, SenderEpoch: run.sender, NodeEpoch: run.local,
		})
	}
}

// read appends to dst the entries past from (clamped to the base), at most
// limit of them — the body of a REP push or a SUB answer.
func (l *opLog) read(dst []potserve.RepEntry, from uint64, limit int) []potserve.RepEntry {
	from = min(max(from, l.base), l.end)
	to := min(l.end, from+uint64(limit))
	dst = slices.Grow(dst, int(to-from))
	l.each(from, to, func(a Applied) { dst = append(dst, a.RepEntry) })
	return dst
}

// applied materializes the retained log, base+1 through end.
func (l *opLog) applied() []Applied {
	out := make([]Applied, 0, l.end-l.base)
	l.each(l.base, l.end, func(a Applied) { out = append(out, a) })
	return out
}
