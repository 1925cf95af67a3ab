package cluster

import (
	"fmt"
	"net"

	"potgo/internal/objstore"
	"potgo/internal/obs"
	"potgo/internal/pmem"
	"potgo/internal/potserve"
)

// Member is one in-process cluster member: its node, server, heap and
// listener address.
type Member struct {
	Node *Node
	Srv  *potserve.Server
	Sh   *pmem.Sharded
	Addr string
}

// Cluster is an in-process N-node cluster plus the coordinator role: it
// builds the members, detects death, and drives failover (catch-up, epoch
// bump, topology push). Production would run the members as separate
// processes and the coordinator as a consensus service; the protocol the
// members speak is identical.
type Cluster struct {
	Members []*Member
	topo    Topology
	seed    int64
}

// NewLocal builds and starts an N-node cluster on loopback listeners, each
// node with its own persistence domain (heap) and journaled KV.
func NewLocal(n, shards int, seed int64, reg *obs.Registry) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 nodes, got %d", n)
	}
	cl := &Cluster{seed: seed}

	// Listeners first: the topology (with final addresses) must exist
	// before any node serves.
	lns := make([]net.Listener, n)
	nodes := make([]potserve.TopoNode, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		nodes[i] = potserve.TopoNode{ID: uint32(i), Alive: true, Addr: ln.Addr().String()}
	}
	cl.topo = NewTopology(1, nodes)

	for i := 0; i < n; i++ {
		sh, err := pmem.NewSharded(pmem.NewStore(), shards, seed+int64(i))
		if err != nil {
			return nil, err
		}
		kv, err := objstore.CreateKV(sh, fmt.Sprintf("node%d", i))
		if err != nil {
			return nil, err
		}
		kv.EnableJournal()
		node := NewNode(uint32(i), kv, cl.topo)
		srv := potserve.ServeBackend(lns[i], node, reg)
		m := &Member{Node: node, Srv: srv, Sh: sh, Addr: nodes[i].Addr}
		// A heap crash is a process death: tear the server down so every
		// in-flight and future client sees a connection error, never an
		// ack. The close runs on its own goroutine — Close waits for the
		// very handler that recovered the crash signal.
		node.OnDeath(func() { go m.Srv.Close() })
		cl.Members = append(cl.Members, m)
	}
	return cl, nil
}

// Topology returns the coordinator's current topology.
func (c *Cluster) Topology() Topology { return c.topo }

// Addrs returns every member's listen address (dead ones included).
func (c *Cluster) Addrs() []string {
	out := make([]string, len(c.Members))
	for i, m := range c.Members {
		out[i] = m.Addr
	}
	return out
}

// Close shuts every member down.
func (c *Cluster) Close() {
	for _, m := range c.Members {
		m.Node.Close()
		m.Srv.Close()
	}
}

// MutateSplitBrain seeds the split-brain bug on every member: followers
// stop refusing stale-epoch appends, so a deposed primary that keeps
// serving can still get its writes accepted. Test-only.
func (c *Cluster) MutateSplitBrain() {
	for _, m := range c.Members {
		m.Node.MutateSplitBrain()
	}
}

// Failover removes a dead member: survivors are caught up on every lagging
// log (the dead node's log first — it is frozen, its unreplicated tail is
// lost by definition, and its replicated tail must reach every survivor),
// then the epoch is bumped and the new topology installed, moving the dead
// node's ring segment to the survivors. Ordering matters: catch-up
// completes BEFORE the new topology serves, so a key's old-epoch entries
// are applied everywhere before any new-epoch write to it can be
// coordinated — per-key apply order stays (epoch, seq)-sorted on every
// node.
func (c *Cluster) Failover(dead uint32) error {
	next := c.topo.MarkDead(dead)
	survivors := make([]*Member, 0, len(c.Members))
	for _, m := range c.Members {
		if m.Node.ID != dead && !m.Node.Dead() {
			survivors = append(survivors, m)
		}
	}
	if len(survivors) == 0 {
		return fmt.Errorf("cluster: no survivors")
	}

	// Catch every survivor up on every origin's log, over the wire, THEN
	// seed the quorum trackers, THEN install the topology.
	if err := c.catchUp(survivors, next.Epoch()); err != nil {
		return err
	}
	if err := c.ackSeed(survivors); err != nil {
		return err
	}

	// Only now install the new topology: the survivors start refusing the
	// dead epoch and the new owner starts serving the moved segment.
	c.topo = next
	for _, m := range survivors {
		m.Node.SetTopology(next)
	}
	return nil
}

// Sync quiesces replication with no membership change: every alive member
// is caught up on every origin's log at the current epoch and every
// primary's quorum tracker reflects what its peers hold. The crash harness
// runs this before auditing a run in which no node died, so the full-
// replication equality checks are meaningful.
func (c *Cluster) Sync() error {
	alive := make([]*Member, 0, len(c.Members))
	for _, m := range c.Members {
		if !m.Node.Dead() {
			alive = append(alive, m)
		}
	}
	if len(alive) == 0 {
		return fmt.Errorf("cluster: no alive members to sync")
	}
	if err := c.catchUp(alive, c.topo.Epoch()); err != nil {
		return err
	}
	return c.ackSeed(alive)
}

// catchUp streams, for every origin, the longest held log suffix to the
// lagging members, over the wire, pushing at the given epoch. Each Sub/Rep
// round is capped at MaxRepEntries, so the stream LOOPS per member until
// the member's watermark reaches the holder's, resuming from the applied
// watermark each REP response returns. Completing the loop is what makes
// Failover's ordering guarantee real: a survivor more than one frame
// behind must not be declared caught up, or the moved ring segment could
// serve a replica silently missing quorum-acknowledged writes.
func (c *Cluster) catchUp(members []*Member, epoch uint64) error {
	for origin := range c.Members {
		o := uint32(origin)
		var maxW uint64
		var holder *Member
		for _, m := range members {
			if w := m.Node.Watermark(o); holder == nil || w > maxW {
				maxW, holder = w, m
			}
		}
		if holder == nil || maxW == 0 {
			continue
		}
		hc, err := dialPeer(holder.Addr)
		if err != nil {
			return fmt.Errorf("cluster: catch-up dial holder: %w", err)
		}
		for _, m := range members {
			if err := catchUpMember(hc, m, o, epoch, maxW); err != nil {
				hc.Close()
				return err
			}
		}
		hc.Close()
	}
	return nil
}

// catchUpMember drives one member to the holder's watermark for one
// origin's log, one MaxRepEntries frame at a time. A round that moves
// neither the Sub cursor nor the member's watermark is an error — catch-up
// must never silently stop short.
func catchUpMember(hc *potserve.Client, m *Member, o uint32, epoch, maxW uint64) error {
	w := m.Node.Watermark(o)
	if w >= maxW {
		return nil
	}
	mc, err := dialPeer(m.Addr)
	if err != nil {
		return fmt.Errorf("cluster: catch-up dial member: %w", err)
	}
	defer mc.Close()
	for w < maxW {
		entries, err := hc.Sub(o, w)
		if err != nil {
			return fmt.Errorf("cluster: catch-up sub origin %d: %w", o, err)
		}
		if len(entries) == 0 {
			return fmt.Errorf("cluster: catch-up stalled: holder has no entries for origin %d past %d (want %d)", o, w, maxW)
		}
		// The push carries the target epoch: members still at an older
		// epoch accept it (senders ahead of the receiver are fine; only
		// senders BEHIND are deposed primaries).
		nw, err := mc.Rep(o, epoch, entries)
		if err != nil {
			return fmt.Errorf("cluster: catch-up rep origin %d: %w", o, err)
		}
		if nw <= w {
			return fmt.Errorf("cluster: catch-up made no progress: member %d stuck at %d of origin %d's %d", m.Node.ID, nw, o, maxW)
		}
		w = nw
	}
	return nil
}

// ackSeed tells every listed primary what its peers hold of ITS log, so a
// catch-up that advanced a follower also advances the primary's quorum
// tracker (ACK frames: reporter id + watermark).
func (c *Cluster) ackSeed(members []*Member) error {
	for _, m := range members {
		mc, err := dialPeer(m.Addr)
		if err != nil {
			return fmt.Errorf("cluster: ack-seed dial: %w", err)
		}
		for _, other := range members {
			if other == m {
				continue
			}
			if err := mc.AckReport(other.Node.ID, other.Node.Watermark(m.Node.ID)); err != nil {
				mc.Close()
				return fmt.Errorf("cluster: ack-seed report: %w", err)
			}
		}
		mc.Close()
	}
	return nil
}

// FailoverExcept is Failover but the new topology is withheld from one
// surviving member — the partitioned-primary half of the split-brain
// scenario: that member keeps serving its old segment at the old epoch.
// Test-only.
func (c *Cluster) FailoverExcept(dead, partitioned uint32) error {
	next := c.topo.MarkDead(dead)
	c.topo = next
	for _, m := range c.Members {
		if m.Node.ID == dead || m.Node.ID == partitioned || m.Node.Dead() {
			continue
		}
		m.Node.SetTopology(next)
	}
	return nil
}
