package lincheck

import (
	"strings"
	"testing"
)

func entry(origin uint32, seq, epoch, key, val uint64) ClusterEntry {
	return ClusterEntry{Origin: origin, Node: 0, Seq: seq,
		EntryEpoch: epoch, SenderEpoch: epoch, NodeEpoch: epoch, Key: key, Val: val}
}

// TestCheckClusterAccepts: a clean history — two origins, one failover,
// replicas agreeing, acked writes present and ordered — passes.
func TestCheckClusterAccepts(t *testing.T) {
	entries := []ClusterEntry{
		entry(0, 1, 1, 10, 100),
		entry(0, 1, 1, 10, 100), // replica copy
		entry(1, 1, 1, 20, 200),
		// After failover (epoch 2) origin 0 inherits key 20.
		entry(0, 2, 2, 20, 201),
	}
	// NodeEpoch may exceed SenderEpoch's entry epoch after failover when a
	// survivor applied pre-failover; never the reverse.
	writes := []ClusterWrite{
		{Key: 10, UID: 100, Call: 1, Ret: 2},
		{Key: 20, UID: 200, Call: 3, Ret: 4},
		{Key: 20, UID: 201, Call: 5, Ret: 6},
	}
	if err := CheckCluster(writes, entries); err != nil {
		t.Fatal(err)
	}
	model := ReplayCluster(entries)
	if model[10] != 100 || model[20] != 201 || len(model) != 2 {
		t.Fatalf("replay model %v", model)
	}
}

// TestCheckClusterCatchesStaleEpoch: an entry applied from a sender behind
// the node's epoch is the split-brain signature.
func TestCheckClusterCatchesStaleEpoch(t *testing.T) {
	bad := entry(0, 1, 1, 10, 100)
	bad.SenderEpoch, bad.NodeEpoch = 1, 2
	err := CheckCluster(nil, []ClusterEntry{bad})
	if err == nil || !strings.Contains(err.Error(), "split brain") {
		t.Fatalf("stale-epoch apply not caught: %v", err)
	}
}

// TestCheckClusterCatchesDualOwners: one key written by two origins within
// one epoch.
func TestCheckClusterCatchesDualOwners(t *testing.T) {
	err := CheckCluster(nil, []ClusterEntry{
		entry(0, 1, 1, 10, 100),
		entry(1, 1, 1, 10, 101),
	})
	if err == nil || !strings.Contains(err.Error(), "split brain") {
		t.Fatalf("dual ownership not caught: %v", err)
	}
}

// TestCheckClusterCatchesLostAck: an acknowledged write absent from every
// surviving log violates cluster-wide acked <= durable.
func TestCheckClusterCatchesLostAck(t *testing.T) {
	err := CheckCluster(
		[]ClusterWrite{{Key: 10, UID: 777, Call: 1, Ret: 2}},
		[]ClusterEntry{entry(0, 1, 1, 10, 100)},
	)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("lost ack not caught: %v", err)
	}
}

// TestCheckClusterCatchesReorder: two sequential acked writes whose log
// positions invert real time.
func TestCheckClusterCatchesReorder(t *testing.T) {
	err := CheckCluster(
		[]ClusterWrite{
			{Key: 10, UID: 100, Call: 1, Ret: 2},
			{Key: 10, UID: 101, Call: 3, Ret: 4},
		},
		[]ClusterEntry{
			entry(0, 1, 1, 10, 101), // the LATER write sits earlier in the log
			entry(0, 2, 1, 10, 100),
		},
	)
	if err == nil || !strings.Contains(err.Error(), "log order") {
		t.Fatalf("real-time inversion not caught: %v", err)
	}
}

// TestCheckClusterCatchesDivergedReplicas: two survivors disagreeing about
// one (origin, seq) slot.
func TestCheckClusterCatchesDivergedReplicas(t *testing.T) {
	a := entry(0, 1, 1, 10, 100)
	b := entry(0, 1, 1, 10, 999)
	err := CheckCluster(nil, []ClusterEntry{a, b})
	if err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("replica divergence not caught: %v", err)
	}
}

// TestClusterRecorderClock: Acked timestamps strictly order sequential
// writes.
func TestClusterRecorderClock(t *testing.T) {
	r := NewClusterRecorder()
	p1 := r.Begin(1, 100, false)
	r.Acked(p1)
	p2 := r.Begin(1, 101, false)
	r.Acked(p2)
	ws := r.Writes()
	if len(ws) != 2 || ws[0].Ret >= ws[1].Call {
		t.Fatalf("recorder order broken: %+v", ws)
	}
}

// TestClusterTrail: a crafted disagreement — node 1 holds a put the
// survivors' merged order folds after a delete node 0 never applied — is
// rendered as the key's applied entries, its acked writes and the
// merged order, other keys left out; a long history stays within
// trailLines, newest entries kept.
func TestClusterTrail(t *testing.T) {
	del := entry(1, 4, 2, 27, 0)
	del.Del, del.Node = true, 1
	onNode1 := entry(0, 3, 1, 27, 501)
	onNode1.Node = 1
	entries := []ClusterEntry{
		entry(0, 3, 1, 27, 501), // node 0
		entry(0, 2, 1, 9, 900),  // another key
		onNode1,
		del,
	}
	writes := []ClusterWrite{
		{Key: 27, UID: 501, Call: 1, Ret: 2},
		{Key: 9, UID: 900, Call: 3, Ret: 4},
		{Key: 27, Del: true, Call: 5, Ret: 6},
	}
	got := ClusterTrail(27, writes, entries)
	want := strings.Join([]string{
		"trail of key 27 (epochs are entry/sender/node):",
		"  node 0 applied origin 0 seq 3, epochs 1/1/1: put 501",
		"  node 1 applied origin 0 seq 3, epochs 1/1/1: put 501",
		"  node 1 applied origin 1 seq 4, epochs 2/2/2: delete",
		"  acked put 501, call 1 ret 2",
		"  acked delete, call 5 ret 6",
		"  merged (e1,s3) origin 0: put 501",
		"  merged (e2,s4) origin 1: delete",
	}, "\n")
	if got != want {
		t.Fatalf("trail:\n%s\nwant:\n%s", got, want)
	}

	var long []ClusterEntry
	var acked []ClusterWrite
	for seq := uint64(1); seq <= 100; seq++ {
		for node := uint32(0); node < 3; node++ {
			e := entry(0, seq, 1, 27, 1000+seq)
			e.Node = node
			long = append(long, e)
		}
		acked = append(acked, ClusterWrite{Key: 27, UID: 1000 + seq, Call: 2 * seq, Ret: 2*seq + 1})
	}
	got = ClusterTrail(27, acked, long)
	lines := strings.Split(got, "\n")
	if len(lines) > trailLines {
		t.Fatalf("trail of 300 entries has %d lines, want <= %d:\n%s", len(lines), trailLines, got)
	}
	if last := lines[len(lines)-1]; last != "  merged (e1,s100) origin 0: put 1100" {
		t.Fatalf("trail does not end on the newest merged entry: %q", last)
	}
	if !strings.Contains(got, "  node 2 applied origin 0 seq 100, epochs 1/1/1: put 1100") {
		t.Fatalf("trail drops node 2's newest entry:\n%s", got)
	}
}
