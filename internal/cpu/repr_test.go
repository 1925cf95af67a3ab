package cpu

import (
	"math/rand"
	"testing"
)

// scanTake is the linear-scan slot clock the sorted one replaced: it claims
// the first of the equally earliest slots in an unsorted array.
func scanTake(s []uint64, earliest uint64) uint64 {
	best, free := 0, s[0]
	for i, v := range s {
		if v < free {
			best = i
		}
		free = min(free, v)
	}
	t := max(earliest, free)
	s[best] = t + 1
	return t
}

// TestSlotClockMatchesScan holds the sorted, branch-free slot clock to the
// linear scan over random takes whose earliest cycle jumps backwards as
// well as forwards.
func TestSlotClockMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 1; width <= 8; width++ {
		sorted, ref := newSlotClock(width), make([]uint64, width)
		var now uint64
		for i := 0; i < 20000; i++ {
			switch rng.Intn(4) {
			case 0:
				now += uint64(rng.Intn(20))
			case 1:
				now -= min(now, uint64(rng.Intn(20)))
			}
			earliest := now + uint64(rng.Intn(4))
			if got, want := sorted.take(earliest), scanTake(ref, earliest); got != want {
				t.Fatalf("width %d, take %d (earliest %d): sorted clock grants %d, scan %d", width, i, earliest, got, want)
			}
		}
	}
}

// TestCommitClockMatchesSlotClock holds the two-word commit clock to the
// sorted slot clock over random request sequences that never go backwards:
// long runs of equal requests that fill a cycle's W grants and spill into
// the next, small steps and large jumps.
func TestCommitClockMatchesSlotClock(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 1; width <= 8; width++ {
		clock, ref := newCommitClock(width), newSlotClock(width)
		var now uint64
		for i := 0; i < 20000; i++ {
			switch rng.Intn(6) {
			case 0:
				now += uint64(rng.Intn(3))
			case 1:
				now += uint64(rng.Intn(200))
			}
			if got, want := clock.take(now), ref.take(now); got != want {
				t.Fatalf("width %d, take %d (earliest %d): commit clock grants %d, slot clock %d", width, i, now, got, want)
			}
		}
	}
}

// TestYoungestConflictFilter holds the granule-filtered store-queue search
// to the plain one over random store, CLWB and load streams: rings that
// wrap, zero-size accesses, ranges that straddle two granules and
// addresses whose granules fold onto the same bucket.
func TestYoungestConflictFilter(t *testing.T) {
	sizes := []uint64{0, 1, 2, 4, 8, 8, 8, 16, 64}
	var loads, skipped, hits int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sq := make([]sqEntry, 1+rng.Intn(12))
		var f sqFilter
		addr := func() uint64 {
			// 64 granules of bytes at any alignment; one in four aliases
			// them 256 granules (2 KiB) further on.
			a := 0x10000 + uint64(rng.Intn(512))
			if rng.Intn(4) == 0 {
				a += 2048 * uint64(1+rng.Intn(3))
			}
			return a
		}
		next := 0
		for i := 0; i < 5000; i++ {
			va, size := addr(), sizes[rng.Intn(len(sizes))]
			switch rng.Intn(3) {
			case 0: // store or CLWB
				f.put(sq, next, sqEntry{va: va, size: size, ready: uint64(i), valid: rng.Intn(5) != 0})
				if next++; next == len(sq) {
					next = 0
				}
			default:
				loads++
				gotReady, gotHit := f.youngestConflict(sq, next, va, size)
				wantReady, wantHit := youngestConflict(sq, next, va, size)
				if gotHit != wantHit || gotReady != wantReady {
					t.Fatalf("seed %d, op %d: load [%#x,+%d) filtered (%d, %v), plain (%d, %v)",
						seed, i, va, size, gotReady, gotHit, wantReady, wantHit)
				}
				if wantHit {
					hits++
				}
				counted := false
				for first, last := granules(va, size); first <= last; first++ {
					counted = counted || f[first&255] != 0
				}
				if !counted {
					skipped++
				}
			}
		}
	}
	if hits == 0 || skipped == 0 || hits+skipped == loads {
		t.Errorf("stream too easy: %d loads, %d forwarded, %d skipped by the filter", loads, hits, skipped)
	}
}
