package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"potgo/internal/potserve"
)

// refLog is the plain reference the columnar opLog must match: every
// retained entry as a whole Applied, Seq base+1 first.
type refLog struct {
	base    uint64
	entries []Applied
}

func (r *refLog) end() uint64 { return r.base + uint64(len(r.entries)) }

func (r *refLog) trim(below uint64) {
	below = min(below, r.end())
	if below <= r.base {
		return
	}
	r.entries = append([]Applied(nil), r.entries[below-r.base:]...)
	r.base = below
}

func (r *refLog) read(from uint64, limit int) []potserve.RepEntry {
	from = min(max(from, r.base), r.end())
	to := min(r.end(), from+uint64(limit))
	var out []potserve.RepEntry
	for _, a := range r.entries[from-r.base : to-r.base] {
		out = append(out, a.RepEntry)
	}
	return out
}

// TestOpLogMatchesReference drives seeded appends, trims, range reads and
// full materializations through opLog and refLog side by side. The epoch
// stamps follow the shapes the cluster produces — steady state, failover,
// catch-up pushed at a higher epoch than the entries carry, and the
// split-brain mutation's per-entry interleaving of a deposed sender with an
// honest one — and deletes are mixed in throughout.
func TestOpLogMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const origin = 2
		l, ref := &opLog{origin: origin}, &refLog{}
		epoch, sender, local := uint64(1), uint64(1), uint64(1)
		interleave := false
		var readAcross, trimInside, trimAcross, catchUp, splitBrain, dels, runStarts int

		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(20); {
			case op < 10: // a burst of appends
				for k := rng.Intn(400) + 1; k > 0; k-- {
					s := sender
					if interleave && rng.Intn(2) == 0 {
						s = local - 1 // a deposed primary's entry, accepted
						splitBrain++
					}
					e := potserve.RepEntry{Seq: l.end + 1, Epoch: epoch, Key: rng.Uint64(), Val: rng.Uint64(), Del: rng.Intn(4) == 0}
					if e.Del {
						dels++
					}
					if s > epoch {
						catchUp++
					}
					l.append(e, s, local)
					ref.entries = append(ref.entries, Applied{RepEntry: e, Origin: origin, SenderEpoch: s, NodeEpoch: local})
				}
			case op < 12: // the membership moves on
				switch rng.Intn(3) {
				case 0: // failover: everyone at the new epoch
					epoch++
					sender, local, interleave = epoch, epoch, false
				case 1: // catch-up pushed at a higher epoch than the entries
					sender, local, interleave = epoch+1, epoch+1, false
				case 2: // split brain: a stale sender interleaved with the live one
					epoch++
					sender, local, interleave = epoch, epoch, true
				}
			case op < 15: // trim inside the base chunk, across chunks, or past the end
				below := ref.base + uint64(rng.Intn(3000)) - 200
				if rng.Intn(4) == 0 {
					below = ref.base + uint64(rng.Intn(50))
				}
				if below > ref.base && below <= ref.end() {
					if below/opChunkLen == ref.base/opChunkLen {
						trimInside++
					} else {
						trimAcross++
					}
				}
				l.trim(below)
				ref.trim(below)
			case op < 19: // a range read onto a non-empty buffer
				from := ref.base + uint64(rng.Intn(int(ref.end()-ref.base)+10)) - 5
				if rng.Intn(3) == 0 && len(l.runs) > 0 {
					from = l.runs[rng.Intn(len(l.runs))].start - 1 // start exactly on a run
					runStarts++
				}
				limit := rng.Intn(2500) + 1
				prefix := []potserve.RepEntry{{Seq: 99}}
				got := l.read(prefix, from, limit)
				want := append(prefix[:1:1], ref.read(from, limit)...)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: read(%d, %d) = %d entries, reference %d; first difference %s",
						seed, step, from, limit, len(got), len(want), firstDiff(got, want))
				}
				if len(want) > 1 && (want[1].Seq-1)/opChunkLen != (want[len(want)-1].Seq-1)/opChunkLen {
					readAcross++
				}
			default: // the verifier's materialization
				checkApplied(t, seed, step, l, ref)
			}
			if l.end != ref.end() || l.base != ref.base {
				t.Fatalf("seed %d step %d: end/base %d/%d, reference %d/%d", seed, step, l.end, l.base, ref.end(), ref.base)
			}
		}
		checkApplied(t, seed, -1, l, ref)
		if readAcross == 0 || trimInside == 0 || trimAcross == 0 || catchUp == 0 || splitBrain == 0 || dels == 0 || runStarts == 0 {
			t.Errorf("seed %d coverage: reads across chunks %d, trims inside %d, across %d, catch-up entries %d, split-brain entries %d, deletes %d, reads from a run start %d",
				seed, readAcross, trimInside, trimAcross, catchUp, splitBrain, dels, runStarts)
		}
	}
}

func checkApplied(t *testing.T, seed int64, step int, l *opLog, ref *refLog) {
	t.Helper()
	got := l.applied()
	if len(got) != len(ref.entries) {
		t.Fatalf("seed %d step %d: applied() holds %d entries, reference %d", seed, step, len(got), len(ref.entries))
	}
	for i := range got {
		if got[i] != ref.entries[i] {
			t.Fatalf("seed %d step %d: applied()[%d] = %+v, reference %+v", seed, step, i, got[i], ref.entries[i])
		}
	}
}

func firstDiff(got, want []potserve.RepEntry) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("at %d: got %+v, reference %+v", i, got[i], want[i])
		}
	}
	return "in length"
}

// TestAppliedLogFootprint gates what a replicated write costs every member
// that applies it: an entry keeps only its key, value and delete bit, in
// chunks allocated 1,024 entries at a time, so 100k appends to one origin
// allocate about 16 B per entry.
func TestAppliedLogFootprint(t *testing.T) {
	const entries = 100000
	l := &opLog{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(1); i <= entries; i++ {
		l.append(potserve.RepEntry{Seq: i, Epoch: 1, Key: i, Val: i, Del: i%5 == 0}, 1, 1)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l)
	per := float64(after.TotalAlloc-before.TotalAlloc) / entries
	t.Logf("%d appends to one origin allocated %.1f B per entry", entries, per)
	if per > 24 {
		t.Errorf("allocated %.1f B per entry, want <= 24", per)
	}
}
