package cluster

import (
	"reflect"
	"testing"

	"potgo/internal/objstore"
	"potgo/internal/pmem"
)

// TestNodeKeepsNoJournal: a NewLocal member is built the way potserve -node
// builds one, over a KV that journals nothing. After writes through the
// routing client and a sync the replicas must agree while no member shard
// holds a journaled op or a bumped op counter, so a long-lived member's
// memory stays bounded by its data and no write persists a counter only
// the crash harness reads.
func TestNodeKeepsNoJournal(t *testing.T) {
	const members, shards, keys = 3, 2, 40
	cl, err := NewLocal(members, shards, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

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
			if n, err := m.Node.KV.Counter(i); err != nil || n != 0 {
				t.Fatalf("member %d shard %d op counter %d (err %v), want 0", m.Node.ID, i, n, err)
			}
		}
	}
}

// writeCost is the persistent work heaps have done: undo records, fences
// (group commits), MVCC publishes and nvmsim events.
type writeCost struct{ undo, fences, publishes, events uint64 }

// costOf sums the work done so far on every listed heap.
func costOf(heaps ...*pmem.Sharded) (c writeCost) {
	for _, sh := range heaps {
		h := sh.Heap()
		st := h.StatsSnapshot()
		c.undo += st.UndoRecords
		c.fences += st.GroupCommits
		c.publishes += st.MVCCPublishes
		c.events += h.NV.Events()
	}
	return c
}

func (a writeCost) sub(b writeCost) writeCost {
	return writeCost{a.undo - b.undo, a.fences - b.fences, a.publishes - b.publishes, a.events - b.events}
}

func (a writeCost) times(k uint64) writeCost {
	return writeCost{a.undo * k, a.fences * k, a.publishes * k, a.events * k}
}

// TestMemberWriteCostsOneNodeWrite: a replicated overwrite is applied once
// on each member and costs each of them exactly what one overwrite of a
// single-node KV costs — in undo records, fences, MVCC publishes and
// persistence events. A member that paid for verification state on the
// write path (a journal entry and an op-counter bump) fails it.
func TestMemberWriteCostsOneNodeWrite(t *testing.T) {
	const members, shards, keys, writes = 3, 2, 32, 200

	// The single-node reference: one KV over its own heap.
	sh, err := pmem.NewSharded(pmem.NewStore(), shards, 1)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := objstore.CreateKV(sh, "node0")
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(1); key <= keys; key++ {
		if _, err := kv.Put(key, key); err != nil {
			t.Fatal(err)
		}
	}
	before := costOf(sh)
	for i := uint64(0); i < writes; i++ {
		if _, err := kv.Put(1+i%keys, 1000+i); err != nil {
			t.Fatal(err)
		}
	}
	node := costOf(sh).sub(before)

	// The same overwrites through the routing client: quorum replication
	// waits for every alive peer, so each write has been applied on all
	// members by the time Put returns.
	cl, err := NewLocal(members, shards, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c, err := DialCluster(cl.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for key := uint64(1); key <= keys; key++ {
		if _, err := c.Put(key, key); err != nil {
			t.Fatalf("seed put %d: %v", key, err)
		}
	}
	heaps := make([]*pmem.Sharded, members)
	for i, m := range cl.Members {
		heaps[i] = m.Sh
	}
	start := costOf(heaps...)
	for i := uint64(0); i < writes; i++ {
		if _, err := c.Put(1+i%keys, 1000+i); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	got := costOf(heaps...).sub(start)
	want := node.times(members)
	per := func(n uint64) float64 { return float64(n) / writes }
	t.Logf("per write: node undo %.2f fences %.2f publishes %.2f events %.2f; cluster (all members) undo %.2f fences %.2f publishes %.2f events %.2f",
		per(node.undo), per(node.fences), per(node.publishes), per(node.events),
		per(got.undo), per(got.fences), per(got.publishes), per(got.events))
	if got != want {
		t.Fatalf("a replicated write costs the members %+v per %d writes, want %d× one node's %+v", got, writes, members, node)
	}
}
