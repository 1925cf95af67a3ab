package lincheck

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The cluster checker audits a replicated-log history. The system under
// test acknowledges a write only after a quorum of nodes applied it to an
// origin log; after a node death and failover, the survivors' merged logs
// are the ground truth. The checker proves four properties:
//
//  1. Epoch discipline (split-brain detector): no node ever applied an
//     entry from a sender whose epoch was below the node's own — a deposed
//     primary got nothing accepted.
//  2. Single ownership: for one key within one epoch, every log entry
//     comes from one origin. Two origins writing one key in the same epoch
//     is the other face of split brain.
//  3. Acked inclusion: every acknowledged client write appears in the
//     surviving logs (matched by its unique value uid; cluster-wide
//     "acked <= durable").
//  4. Real-time order: for two acknowledged writes to one key, if the
//     first returned before the second was invoked, the first's log
//     position — (epoch, seq) — precedes the second's. Log order is the
//     linearization witness.
//
// ReplayCluster then folds the merged logs per key in (epoch, seq) order
// into the model state recovery must agree with.

// ClusterEntry is one applied log entry as audited: the wire entry plus
// the apply context recorded by the node that applied it.
type ClusterEntry struct {
	Origin uint32 // whose log
	Node   uint32 // who applied it
	Seq    uint64
	// EntryEpoch is the epoch the origin coordinated the write at;
	// SenderEpoch the epoch the pushing node claimed at delivery;
	// NodeEpoch the applying node's epoch at apply time.
	EntryEpoch  uint64
	SenderEpoch uint64
	NodeEpoch   uint64
	Key         uint64
	Val         uint64
	Del         bool
}

// ClusterWrite is one acknowledged client write: the unique uid the
// workload stamped into Val, and the recorder's call/return timestamps.
type ClusterWrite struct {
	Key  uint64
	UID  uint64
	Del  bool
	Call uint64
	Ret  uint64
}

// ClusterRecorder collects acknowledged cluster writes on the single
// atomic clock the Wing–Gong recorder uses, so real-time order across
// workers is exact.
type ClusterRecorder struct {
	clock  uint64
	mu     sync.Mutex
	writes []ClusterWrite
}

// NewClusterRecorder returns an empty cluster recorder.
func NewClusterRecorder() *ClusterRecorder { return &ClusterRecorder{} }

// ClusterPending is an invoked-but-unacknowledged cluster write.
type ClusterPending struct {
	key, uid uint64
	del      bool
	call     uint64
}

// Begin timestamps a write invocation.
func (r *ClusterRecorder) Begin(key, uid uint64, del bool) ClusterPending {
	return ClusterPending{key: key, uid: uid, del: del, call: atomic.AddUint64(&r.clock, 1)}
}

// Acked commits an acknowledged write to the history. Unacknowledged
// writes are simply never committed — the protocol makes no promise about
// them.
func (r *ClusterRecorder) Acked(p ClusterPending) {
	ret := atomic.AddUint64(&r.clock, 1)
	r.mu.Lock()
	r.writes = append(r.writes, ClusterWrite{Key: p.key, UID: p.uid, Del: p.del, Call: p.call, Ret: ret})
	r.mu.Unlock()
}

// Writes snapshots the acknowledged history (call with workers joined).
func (r *ClusterRecorder) Writes() []ClusterWrite {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ClusterWrite, len(r.writes))
	copy(out, r.writes)
	return out
}

// logPos orders entries by (epoch, seq): within one epoch a key has one
// origin (checked), whose seq order is its commit order; epochs only move
// forward in real time (the new topology serves only after failover).
type logPos struct {
	epoch, seq uint64
}

func (p logPos) before(q logPos) bool {
	if p.epoch != q.epoch {
		return p.epoch < q.epoch
	}
	return p.seq < q.seq
}

// CheckCluster audits the merged applied logs of the surviving nodes
// against the acknowledged history. entries is the concatenation of every
// survivor's applied logs (all origins); duplicates across survivors are
// expected and must agree.
func CheckCluster(writes []ClusterWrite, entries []ClusterEntry) error {
	// 1. Epoch discipline.
	for _, e := range entries {
		if e.SenderEpoch < e.NodeEpoch {
			return fmt.Errorf("lincheck: split brain: node %d applied origin %d seq %d (key %d) from a sender at epoch %d while at epoch %d",
				e.Node, e.Origin, e.Seq, e.Key, e.SenderEpoch, e.NodeEpoch)
		}
	}

	// Deduplicate by (origin, seq); replicas of one entry must agree.
	type originSeq struct {
		origin uint32
		seq    uint64
	}
	merged := make(map[originSeq]ClusterEntry)
	for _, e := range entries {
		k := originSeq{e.Origin, e.Seq}
		if prev, ok := merged[k]; ok {
			if prev.Key != e.Key || prev.Val != e.Val || prev.Del != e.Del || prev.EntryEpoch != e.EntryEpoch {
				return fmt.Errorf("lincheck: origin %d seq %d diverges across replicas: (key %d val %d del %v epoch %d) vs (key %d val %d del %v epoch %d)",
					e.Origin, e.Seq, prev.Key, prev.Val, prev.Del, prev.EntryEpoch, e.Key, e.Val, e.Del, e.EntryEpoch)
			}
			continue
		}
		merged[k] = e
	}

	// 2. Single ownership per (key, epoch).
	ownerAt := make(map[[2]uint64]uint32)
	for k, e := range merged {
		ok := [2]uint64{e.Key, e.EntryEpoch}
		if prev, seen := ownerAt[ok]; seen && prev != e.Origin {
			return fmt.Errorf("lincheck: split brain: key %d written by origins %d and %d in epoch %d",
				e.Key, prev, k.origin, e.EntryEpoch)
		}
		ownerAt[ok] = e.Origin
	}

	// 3+4. Acked inclusion and real-time order. A retried write can appear
	// in the logs more than once (the unacked first attempt plus the acked
	// retry); all its entries precede the write's return, so the LAST
	// position per uid is a sound witness: for acked a returning before
	// acked b's call, every a-entry precedes every b-entry.
	lastPos := make(map[uint64]logPos)
	for _, e := range merged {
		if e.Del {
			continue // deletes carry no uid in Val on the KV wire
		}
		p := logPos{e.EntryEpoch, e.Seq}
		if cur, ok := lastPos[e.Val]; !ok || cur.before(p) {
			lastPos[e.Val] = p
		}
	}
	byKey := make(map[uint64][]ClusterWrite)
	for _, w := range writes {
		if !w.Del {
			if _, ok := lastPos[w.UID]; !ok {
				return fmt.Errorf("lincheck: acknowledged write key %d uid %d missing from every surviving log", w.Key, w.UID)
			}
		}
		byKey[w.Key] = append(byKey[w.Key], w)
	}
	for key, ws := range byKey {
		sort.Slice(ws, func(i, j int) bool { return ws[i].Call < ws[j].Call })
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				a, b := ws[i], ws[j]
				if a.Ret >= b.Call || a.Del || b.Del {
					continue // concurrent, or unmatchable deletes
				}
				pa, pb := lastPos[a.UID], lastPos[b.UID]
				if !pa.before(pb) {
					return fmt.Errorf("lincheck: key %d: write uid %d returned before uid %d was invoked, but log order is (e%d,s%d) >= (e%d,s%d)",
						key, a.UID, b.UID, pa.epoch, pa.seq, pb.epoch, pb.seq)
				}
			}
		}
	}
	return nil
}

// ReplayCluster folds the deduplicated logs per key in (epoch, seq) order
// into the final model state: key -> value for every surviving key.
func ReplayCluster(entries []ClusterEntry) map[uint64]uint64 {
	model := make(map[uint64]uint64)
	for _, e := range mergedLog(entries) {
		if e.Del {
			delete(model, e.Key)
		} else {
			model[e.Key] = e.Val
		}
	}
	return model
}

// mergedLog deduplicates entries by (origin, seq), keeping the first copy,
// and sorts them into the (epoch, seq) order ReplayCluster folds; equal
// positions order by origin.
func mergedLog(entries []ClusterEntry) []ClusterEntry {
	type originSeq struct {
		origin uint32
		seq    uint64
	}
	seen := make(map[originSeq]bool)
	var log []ClusterEntry
	for _, e := range entries {
		k := originSeq{e.Origin, e.Seq}
		if seen[k] {
			continue
		}
		seen[k] = true
		log = append(log, e)
	}
	sort.Slice(log, func(i, j int) bool {
		pi, pj := logPos{log[i].EntryEpoch, log[i].Seq}, logPos{log[j].EntryEpoch, log[j].Seq}
		if pi.epoch != pj.epoch || pi.seq != pj.seq {
			return pi.before(pj)
		}
		return log[i].Origin < log[j].Origin
	})
	return log
}

// Trail line budgets: one header, then the applied entries, the acked
// writes and the merged order. Each section keeps its newest lines.
const (
	trailApplied = 15
	trailAcked   = 7
	trailMerged  = 9
	// trailLines bounds what ClusterTrail renders.
	trailLines = 1 + trailApplied + trailAcked + trailMerged
)

// ClusterTrail renders key's history for a failure report, in at most
// trailLines lines: every survivor's applied entries for the key in the
// order its logs hold them (origin, seq, entry/sender/node epoch, value or
// delete), the acknowledged writes the recorder holds for it, and the
// merged (epoch, seq) order ReplayCluster folds.
func ClusterTrail(key uint64, writes []ClusterWrite, entries []ClusterEntry) string {
	op := func(e ClusterEntry) string {
		if e.Del {
			return "delete"
		}
		return fmt.Sprintf("put %d", e.Val)
	}
	var applied []string
	for _, e := range entries {
		if e.Key == key {
			applied = append(applied, fmt.Sprintf("  node %d applied origin %d seq %d, epochs %d/%d/%d: %s",
				e.Node, e.Origin, e.Seq, e.EntryEpoch, e.SenderEpoch, e.NodeEpoch, op(e)))
		}
	}
	lines := []string{fmt.Sprintf("trail of key %d (epochs are entry/sender/node):", key)}
	lines = append(lines, newest(applied, trailApplied)...)
	var acked []string
	for _, w := range writes {
		if w.Key != key {
			continue
		}
		what := fmt.Sprintf("put %d", w.UID)
		if w.Del {
			what = "delete"
		}
		acked = append(acked, fmt.Sprintf("  acked %s, call %d ret %d", what, w.Call, w.Ret))
	}
	if len(acked) == 0 {
		acked = []string{"  no acked write"}
	}
	lines = append(lines, newest(acked, trailAcked)...)
	var merged []string
	for _, e := range mergedLog(entries) {
		if e.Key == key {
			merged = append(merged, fmt.Sprintf("  merged (e%d,s%d) origin %d: %s", e.EntryEpoch, e.Seq, e.Origin, op(e)))
		}
	}
	if len(merged) == 0 {
		merged = []string{"  no merged entry"}
	}
	lines = append(lines, newest(merged, trailMerged)...)
	return strings.Join(lines, "\n")
}

// newest keeps the last n lines, the first of them replaced by a count of
// what was dropped when lines do not fit.
func newest(lines []string, n int) []string {
	if len(lines) <= n {
		return lines
	}
	keep := lines[len(lines)-n+1:]
	return append([]string{fmt.Sprintf("  ... %d earlier", len(lines)-len(keep))}, keep...)
}
