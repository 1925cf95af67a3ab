package cluster

import (
	"testing"

	"potgo/internal/potserve"
)

func testMembers(n int) []potserve.TopoNode {
	nodes := make([]potserve.TopoNode, n)
	for i := range nodes {
		nodes[i] = potserve.TopoNode{ID: uint32(i), Alive: true, Addr: "unused"}
	}
	return nodes
}

func newTestCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	cl, err := NewLocal(n, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestClusterBasic: routed writes land on their owners, replicate
// everywhere, reach quorum, and read back both through the routing client
// and from every member's local replica log.
func TestClusterBasic(t *testing.T) {
	cl := newTestCluster(t, 3)
	c, err := DialCluster(cl.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 40
	for key := uint64(1); key <= keys; key++ {
		created, err := c.Put(key, key*100)
		if err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
		if !created {
			t.Fatalf("put %d: not created", key)
		}
	}
	for key := uint64(1); key <= keys; key++ {
		val, ok, err := c.Get(key)
		if err != nil || !ok || val != key*100 {
			t.Fatalf("get %d: val=%d ok=%v err=%v", key, val, ok, err)
		}
	}
	if existed, err := c.Delete(7); err != nil || !existed {
		t.Fatalf("delete: existed=%v err=%v", existed, err)
	}
	if _, ok, _ := c.Get(7); ok {
		t.Fatal("deleted key still present")
	}
	kvs, err := c.Scan(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != keys-1 {
		t.Fatalf("scan returned %d pairs, want %d", len(kvs), keys-1)
	}
	for i := 1; i < len(kvs); i++ {
		if kvs[i].Key <= kvs[i-1].Key {
			t.Fatal("scan not ascending")
		}
	}

	// Full replication: every member holds every origin's log, and the
	// origins' logs are gap-free.
	total := 0
	for _, m := range cl.Members {
		total += int(m.Node.Seq())
	}
	if total != keys+1 {
		t.Fatalf("origin logs hold %d entries, want %d", total, keys+1)
	}
	for _, m := range cl.Members {
		for _, origin := range cl.Members {
			log := m.Node.AppliedLog(origin.Node.ID)
			if uint64(len(log)) != origin.Node.Seq() {
				t.Fatalf("member %d holds %d of origin %d's %d entries",
					m.Node.ID, len(log), origin.Node.ID, origin.Node.Seq())
			}
			for i, a := range log {
				if a.Seq != uint64(i+1) {
					t.Fatalf("member %d origin %d: log gap at %d", m.Node.ID, origin.Node.ID, i)
				}
			}
		}
		// Every origin's committed watermark reached quorum.
		if got, want := m.Node.tracker.Committed(), m.Node.Seq(); got != want {
			t.Fatalf("member %d: committed %d of %d own entries", m.Node.ID, got, want)
		}
	}
}

// TestClusterNotOwnerRedirect: a direct (non-routing) client hitting the
// wrong member gets StatusNotOwner, and the routing client recovers from a
// deliberately stale topology.
func TestClusterNotOwnerRedirect(t *testing.T) {
	cl := newTestCluster(t, 3)
	topo := cl.Topology()
	// Find a key and a member that does NOT own it.
	var key uint64
	var wrong string
	for k := uint64(1); k < 100; k++ {
		owner, _ := topo.Owner(k)
		for _, m := range cl.Members {
			if m.Node.ID != owner {
				key, wrong = k, m.Addr
				break
			}
		}
		if wrong != "" {
			break
		}
	}
	pc, err := potserve.Dial(wrong)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.Put(key, 1); err != potserve.ErrNotOwner {
		t.Fatalf("wrong-member put: %v, want ErrNotOwner", err)
	}
	if _, _, err := pc.Get(key); err != potserve.ErrNotOwner {
		t.Fatalf("wrong-member get: %v, want ErrNotOwner", err)
	}
}

// TestClusterFailover: kill a member (cleanly, via server shutdown), fail
// over, and require the moved segment to accept writes at the new epoch
// while acknowledged pre-failover data survives.
func TestClusterFailover(t *testing.T) {
	cl := newTestCluster(t, 3)
	c, err := DialCluster(cl.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 60
	for key := uint64(1); key <= keys; key++ {
		if _, err := c.Put(key, key); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}

	victim := cl.Members[1]
	victim.Srv.Close()
	if err := cl.Failover(victim.Node.ID); err != nil {
		t.Fatal(err)
	}

	// Every key — including the dead member's segment — must read and
	// write through the refreshed topology.
	for key := uint64(1); key <= keys; key++ {
		val, ok, err := c.Get(key)
		if err != nil || !ok || val != key {
			t.Fatalf("get %d after failover: val=%d ok=%v err=%v", key, val, ok, err)
		}
		if _, err := c.Put(key, key+1000); err != nil {
			t.Fatalf("put %d after failover: %v", key, err)
		}
	}
	if got := c.Topology().Epoch(); got != 2 {
		t.Fatalf("client epoch %d after failover, want 2", got)
	}

	// The deposed epoch is fenced: a replication append claiming epoch 1
	// must be refused by a survivor.
	surv := cl.Members[0]
	pc, err := potserve.Dial(surv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	stale := []potserve.RepEntry{{Seq: victim.Node.Seq() + 1, Epoch: 1, Key: 9999, Val: 1}}
	if _, err := pc.Rep(victim.Node.ID, 1, stale); err == nil {
		t.Fatal("stale-epoch append was accepted")
	}

	// With the mutation seeded, the same stale append goes through — the
	// bug the cluster verifier must catch.
	surv.Node.MutateSplitBrain()
	w, err := pc.Rep(victim.Node.ID, 1, stale)
	if err != nil {
		t.Fatalf("mutated stale append: %v", err)
	}
	if w != victim.Node.Seq()+1 {
		t.Fatalf("mutated stale append watermark %d, want %d", w, victim.Node.Seq()+1)
	}
	log := surv.Node.AppliedLog(victim.Node.ID)
	last := log[len(log)-1]
	if last.SenderEpoch >= last.NodeEpoch {
		t.Fatalf("mutated apply not flagged: sender epoch %d vs node epoch %d", last.SenderEpoch, last.NodeEpoch)
	}
}
