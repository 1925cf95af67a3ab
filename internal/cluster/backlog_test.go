package cluster

import (
	"strings"
	"testing"

	"potgo/internal/potserve"
)

// seedOwnLog injects n synthetic entries into m's own applied log without
// going through the replicated write path — the fast way to create a
// backlog deeper than one MaxRepEntries REP frame. Keys live far above the
// test keyspace; values equal the sequence. The member's own KV is left
// untouched: the paths under test (catch-up, backlog push) serve from the
// applied log, and only the FOLLOWERS apply the entries.
func seedOwnLog(m *Member, n int) {
	nd := m.Node
	nd.mu.Lock()
	defer nd.mu.Unlock()
	epoch := nd.topo.Epoch()
	for i := 0; i < n; i++ {
		nd.seq++
		e := potserve.RepEntry{Seq: nd.seq, Epoch: epoch, Key: 1<<32 + nd.seq, Val: nd.seq}
		nd.watermark[nd.ID] = e.Seq
		nd.applied[nd.ID] = append(nd.applied[nd.ID], Applied{
			RepEntry: e, Origin: nd.ID, SenderEpoch: epoch, NodeEpoch: epoch,
		})
	}
}

// ownedKeys returns n distinct keys the given member owns under the topology.
func ownedKeys(t *testing.T, topo Topology, id uint32, n int) []uint64 {
	t.Helper()
	var keys []uint64
	for k := uint64(1); len(keys) < n && k < 100000; k++ {
		if owner, ok := topo.Owner(k); ok && owner == id {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("member %d owns only %d keys", id, len(keys))
	}
	return keys
}

// ownedKey returns a key the given member owns under the topology.
func ownedKey(t *testing.T, topo Topology, id uint32) uint64 {
	t.Helper()
	return ownedKeys(t, topo, id, 1)[0]
}

// TestClusterDeepCatchUp: a member lagging by more than one REP frame
// (> MaxRepEntries entries) must still be caught up COMPLETELY by
// Sync/Failover's catch-up loop — the single-round version of this bug
// silently left survivors missing quorum-acknowledged writes.
func TestClusterDeepCatchUp(t *testing.T) {
	if testing.Short() {
		t.Skip("deep backlog is ~60k applies per follower")
	}
	cl := newTestCluster(t, 3)
	const deep = 2*potserve.MaxRepEntries + 57
	seedOwnLog(cl.Members[0], deep)

	if err := cl.Sync(); err != nil {
		t.Fatalf("sync over deep backlog: %v", err)
	}
	for _, m := range cl.Members[1:] {
		if w := m.Node.Watermark(0); w != deep {
			t.Fatalf("member %d caught up to %d of %d", m.Node.ID, w, deep)
		}
		log := m.Node.AppliedLog(0)
		if len(log) != deep {
			t.Fatalf("member %d holds %d of %d entries", m.Node.ID, len(log), deep)
		}
		for i, a := range log {
			if a.Seq != uint64(i+1) {
				t.Fatalf("member %d: log gap at %d (seq %d)", m.Node.ID, i, a.Seq)
			}
		}
		// The follower actually applied the tail to its replica.
		last := log[len(log)-1]
		if v, ok, err := m.Node.KV.Get(last.Key); err != nil || !ok || v != last.Val {
			t.Fatalf("member %d replica missing tail entry: v=%d ok=%v err=%v", m.Node.ID, v, ok, err)
		}
	}
	// ackSeed advanced the origin's quorum tracker over the whole log.
	if got := cl.Members[0].Node.tracker.Committed(); got != deep {
		t.Fatalf("origin committed %d of %d after sync", got, deep)
	}
}

// TestClusterDeepBacklogPush: a write that finds more than one REP frame
// of unconfirmed backlog queued for its peers must drain the whole backlog
// and reach quorum, not fail with a spurious quorum error.
func TestClusterDeepBacklogPush(t *testing.T) {
	if testing.Short() {
		t.Skip("deep backlog is ~30k applies per follower")
	}
	cl := newTestCluster(t, 3)
	const deep = potserve.MaxRepEntries + 123
	origin := cl.Members[0]
	seedOwnLog(origin, deep)
	origin.Node.tracker.Ack(deep, origin.Node.ID)

	c, err := potserve.Dial(origin.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := ownedKey(t, cl.Topology(), origin.Node.ID)
	if _, err := c.Put(key, 42); err != nil {
		t.Fatalf("put behind deep backlog: %v", err)
	}
	for _, m := range cl.Members[1:] {
		if w := m.Node.Watermark(0); w != deep+1 {
			t.Fatalf("member %d confirmed %d of %d", m.Node.ID, w, deep+1)
		}
	}
	if !origin.Node.tracker.Durable(deep + 1) {
		t.Fatal("write not durable on quorum after backlog drain")
	}

	// With every peer confirmed through the tail, SelfCompact may drop the
	// node's whole own log.
	origin.Node.SelfCompact()
	if got := trimmed(origin.Node, origin.Node.ID); got != deep+1 {
		t.Fatalf("self-compact floor %d, want %d", got, deep+1)
	}
	if n := len(origin.Node.AppliedLog(origin.Node.ID)); n != 0 {
		t.Fatalf("self-compact left %d entries", n)
	}
}

// TestClusterCompact: CompactBelow at the cluster-wide floor trims every
// synced member's logs, later writes still replicate (the
// backlog push resumes above the floor), and a SUB below the floor is an
// explicit error, never a silent gap.
func TestClusterCompact(t *testing.T) {
	cl := newTestCluster(t, 3)
	c, err := DialCluster(cl.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 40
	for key := uint64(1); key <= keys; key++ {
		if _, err := c.Put(key, key); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	if err := cl.Sync(); err != nil {
		t.Fatal(err)
	}
	// Trim every log below the cluster-wide floor: per origin, the lowest
	// watermark across the members.
	for _, origin := range cl.Members {
		o := origin.Node.ID
		floor := origin.Node.Watermark(o)
		for _, m := range cl.Members {
			floor = min(floor, m.Node.Watermark(o))
		}
		for _, m := range cl.Members {
			m.Node.CompactBelow(o, floor)
		}
	}
	for _, m := range cl.Members {
		for _, origin := range cl.Members {
			o := origin.Node.ID
			if got, want := trimmed(m.Node, o), origin.Node.Seq(); got != want {
				t.Fatalf("member %d origin %d: floor %d, want %d", m.Node.ID, o, got, want)
			}
			if n := len(m.Node.AppliedLog(o)); n != 0 {
				t.Fatalf("member %d origin %d: %d entries after compaction", m.Node.ID, o, n)
			}
		}
	}

	// Writes after compaction replicate and read back everywhere.
	for key := uint64(1); key <= keys; key++ {
		if _, err := c.Put(key, key+1000); err != nil {
			t.Fatalf("post-compaction put %d: %v", key, err)
		}
	}
	for key := uint64(1); key <= keys; key++ {
		if val, ok, err := c.Get(key); err != nil || !ok || val != key+1000 {
			t.Fatalf("post-compaction get %d: val=%d ok=%v err=%v", key, val, ok, err)
		}
	}
	if err := cl.Sync(); err != nil {
		t.Fatalf("sync after compaction: %v", err)
	}

	// SUB below the compaction floor refuses explicitly.
	m := cl.Members[0]
	pc, err := potserve.Dial(m.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.Sub(m.Node.ID, 0); err == nil || !strings.Contains(err.Error(), "compacted") {
		t.Fatalf("sub below floor: %v, want compacted error", err)
	}
}

// trimmed returns n's compaction floor for an origin: entries with Seq at
// or below it have been discarded from the applied log.
func trimmed(n *Node, origin uint32) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.trimmed[origin]
}
