package cluster

import (
	"net"
	"reflect"
	"testing"

	"potgo/internal/objstore"
	"potgo/internal/pmem"
	"potgo/internal/potserve"
)

// TestNodeKeepsNoJournal builds a cluster the way potserve -node does —
// NewNode and ServeBackend over a KV that journals nothing — writes through
// the routing client and syncs: the replicas must agree while no KV shard
// holds a single journaled op, so a long-lived member's memory stays
// bounded by its data.
func TestNodeKeepsNoJournal(t *testing.T) {
	const members, shards, keys = 3, 2, 40
	lns := make([]net.Listener, members)
	nodes := make([]potserve.TopoNode, members)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		nodes[i] = potserve.TopoNode{ID: uint32(i), Alive: true, Addr: ln.Addr().String()}
	}
	cl := &Cluster{topo: NewTopology(1, nodes)}
	t.Cleanup(cl.Close)
	for i, ln := range lns {
		sh, err := pmem.NewSharded(pmem.NewStore(), shards, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		kv, err := objstore.CreateKV(sh, "potserve")
		if err != nil {
			t.Fatal(err)
		}
		node := NewNode(uint32(i), kv, cl.topo)
		srv := potserve.ServeBackend(ln, node, nil)
		cl.Members = append(cl.Members, &Member{Node: node, Srv: srv, Sh: sh, Addr: nodes[i].Addr})
	}

	c, err := DialCluster(cl.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for key := uint64(1); key <= keys; key++ {
		if _, err := c.Put(key, key*3); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	if err := cl.Sync(); err != nil {
		t.Fatal(err)
	}

	want, err := cl.Members[0].Node.KV.Scan(0, keys+1)
	if err != nil || len(want) != keys {
		t.Fatalf("member 0 holds %d pairs (err %v), want %d", len(want), err, keys)
	}
	for _, m := range cl.Members {
		got, err := m.Node.KV.Scan(0, keys+1)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("member %d replica %v (err %v), member 0 holds %v", m.Node.ID, got, err, want)
		}
		for i := 0; i < shards; i++ {
			if j := m.Node.KV.Journal(i); len(j) != 0 {
				t.Fatalf("member %d shard %d journaled %d ops", m.Node.ID, i, len(j))
			}
		}
	}
}
