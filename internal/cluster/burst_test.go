package cluster

import (
	"strings"
	"testing"

	"potgo/internal/obs"
	"potgo/internal/potserve"
)

func putBurst(keys []uint64) ([]potserve.Request, []potserve.Response) {
	reqs := make([]potserve.Request, len(keys))
	for i, k := range keys {
		reqs[i] = potserve.Request{Op: potserve.OpPut, Key: k, Val: k + 1}
	}
	return reqs, make([]potserve.Response, len(reqs))
}

// TestNodeBurstOrder: a burst runs in order against the local store — a GET
// after a PUT of the same key sees it, before the burst is replicated — and
// a key the node does not own refuses only its own op.
func TestNodeBurstOrder(t *testing.T) {
	cl := newTestCluster(t, 3)
	topo := cl.Topology()
	mine := ownedKeys(t, topo, 0, 2)
	foreign := ownedKey(t, topo, 1)
	k := mine[0]
	reqs := []potserve.Request{
		{Op: potserve.OpPut, Key: k, Val: 5},
		{Op: potserve.OpGet, Key: k},
		{Op: potserve.OpPut, Key: foreign, Val: 9},
		{Op: potserve.OpDel, Key: k},
		{Op: potserve.OpGet, Key: k},
		{Op: potserve.OpGet, Key: foreign},
		{Op: potserve.OpPut, Key: mine[1], Val: 6},
	}
	resps := make([]potserve.Response, len(reqs))
	node := cl.Members[0].Node
	node.ExecBurst(reqs, resps)
	want := []potserve.Response{
		{Status: potserve.StatusOK, Created: true},
		{Status: potserve.StatusOK, Val: 5},
		{Status: potserve.StatusNotOwner},
		{Status: potserve.StatusOK},
		{Status: potserve.StatusNotFound},
		{Status: potserve.StatusNotOwner},
		{Status: potserve.StatusOK, Created: true},
	}
	for i, w := range want {
		if g := resps[i]; g.Status != w.Status || g.Val != w.Val || g.Created != w.Created || g.Seq != 0 {
			t.Fatalf("op %d answered %+v, want %+v", i, g, w)
		}
	}
	if got := node.Seq(); got != 3 {
		t.Fatalf("own log holds %d entries, want the burst's 3 owned writes", got)
	}
	for _, m := range cl.Members[1:] {
		if w := m.Node.Watermark(0); w != 3 {
			t.Fatalf("member %d holds %d of the burst's 3 entries", m.Node.ID, w)
		}
	}
}

// TestNodeBurstOneFramePerPeer: a burst's writes ride one REP frame to each
// peer, however many they are.
func TestNodeBurstOneFramePerPeer(t *testing.T) {
	reg := obs.NewRegistry()
	cl, err := NewLocal(3, 2, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reqs, resps := putBurst(ownedKeys(t, cl.Topology(), 0, 32))
	cl.Members[0].Node.ExecBurst(reqs, resps)
	for i, r := range resps {
		if r.Status != potserve.StatusOK || !r.Created {
			t.Fatalf("write %d answered %+v", i, r)
		}
	}
	if got := reg.Counter("potserve.requests.rep").Value(); got != 2 {
		t.Fatalf("%d REP frames for one burst on a 3-node cluster, want 2", got)
	}
	for _, m := range cl.Members[1:] {
		if w := m.Node.Watermark(0); w != 32 {
			t.Fatalf("member %d applied %d of 32", m.Node.ID, w)
		}
	}
}

// TestNodeBurstPeerDown: each write of a burst is judged by its own entry.
// With one peer down, two members cannot form their quorum of two and every
// write is refused; three members still can and none is.
func TestNodeBurstPeerDown(t *testing.T) {
	for _, members := range []int{2, 3} {
		cl := newTestCluster(t, members)
		node := cl.Members[0].Node
		keys := ownedKeys(t, cl.Topology(), 0, 9)
		// One write first, so the burst meets an established stream to the
		// peer that is about to go down, not a refused dial.
		warm, warmResps := putBurst(keys[:1])
		node.ExecBurst(warm, warmResps)
		if warmResps[0].Status != potserve.StatusOK {
			t.Fatalf("%d members: warm-up write answered %+v", members, warmResps[0])
		}
		cl.Members[members-1].Srv.Close()

		reqs, resps := putBurst(keys[1:])
		node.ExecBurst(reqs, resps)
		for i, r := range resps {
			if members == 2 {
				if r.Status != potserve.StatusErr || !strings.Contains(r.Msg, "quorum") {
					t.Fatalf("2 members, peer down: write %d answered %+v, want a quorum refusal", i, r)
				}
			} else if r.Status != potserve.StatusOK {
				t.Fatalf("3 members, one peer down: write %d answered %+v", i, r)
			}
		}
	}
}
