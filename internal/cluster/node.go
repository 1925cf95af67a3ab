package cluster

import (
	"fmt"
	"sync"
	"time"

	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/potserve"
)

// Replication and coordination round trips are bounded: a hung peer (a
// partition that drops packets without resetting the connection) must turn
// into a failed ack or a failed catch-up, never a coordinator — or every
// client write on it — blocked forever.
const (
	peerDialTimeout = 5 * time.Second
	peerCallTimeout = 15 * time.Second
)

// dialPeer dials a member for replication traffic with connect and
// per-round-trip deadlines armed.
func dialPeer(addr string) (*potserve.Client, error) {
	c, err := potserve.DialTimeout(addr, peerDialTimeout)
	if err != nil {
		return nil, err
	}
	c.SetTimeout(peerCallTimeout)
	return c, nil
}

// Applied is one log entry as applied on a node, stamped with the context
// the verifier needs: the epoch the sender claimed when it pushed the entry
// and the node's own epoch at apply time. An entry applied with
// SenderEpoch < NodeEpoch is the split-brain signature — a deposed primary
// got a write accepted after the membership moved on — and the honest
// follower path rejects exactly that.
type Applied struct {
	potserve.RepEntry
	Origin      uint32
	SenderEpoch uint64
	NodeEpoch   uint64
}

// Node is one cluster member: a potserve Backend that owns a ring segment
// (it coordinates writes for its keys), follows every peer's op log, and
// replicates its own log to the peers, acknowledging a write only once a
// majority of the original membership holds it durably.
//
// A node whose heap crashes (an armed nvmsim event fires during a local
// apply) recovers the panic, marks itself dead and shuts its server down —
// the in-process analogue of the process dying: in-flight clients see
// connection errors, peers stop getting acks.
type Node struct {
	ID uint32
	KV *objstore.KV

	// onDeath, when non-nil, runs once on the first recovered crash signal
	// (the harness uses it to close the node's listener asynchronously).
	onDeath func()

	mu   sync.Mutex
	topo Topology
	// wmu serializes local apply + log append on the coordinator path, so
	// one node's per-key apply order equals its log order. It is held per
	// write, not per burst, and NEVER across a network call: the handler
	// that applied a burst pushes it afterwards, holding only the per-peer
	// stream locks, which is what keeps two nodes writing to each other
	// deadlock-free.
	wmu sync.Mutex
	// repmu[origin] serializes follower applies per origin. Different
	// origins own disjoint key segments, so per-origin locking preserves
	// per-key order without coupling the origins (or the local write path).
	repmu sync.Map // uint32 -> *sync.Mutex
	// seq numbers this node's own log from 1.
	seq uint64
	// tracker counts durability acks for this node's own log.
	tracker *Tracker
	// watermark[origin] is the highest seq applied in order per origin.
	watermark map[uint32]uint64
	// applied[origin] is the in-order applied log per origin, including
	// this node's own, minus any compacted prefix: applied[origin][i]
	// holds Seq trimmed[origin]+i+1. Volatile by design — the persistent
	// truth is the KV; the applied log is the replication state the
	// verifier audits (the crash harness never compacts, so it audits
	// full logs).
	applied map[uint32][]Applied
	// trimmed[origin] is the compaction floor: entries with
	// Seq <= trimmed[origin] have been discarded from applied[origin].
	trimmed map[uint32]uint64

	// peers holds one replication stream per peer: a lazily-dialed client,
	// the peer's last confirmed watermark for OUR log, and a lock
	// serializing pushes to that peer. Every push sends the whole backlog
	// past the confirmed watermark, so concurrent bursts pushing out of
	// order still deliver the log gap-free.
	peersMu sync.Mutex
	peers   map[uint32]*peerStream

	dead      bool
	deathOnce sync.Once

	// splitBrainMutation disables the stale-epoch rejection on the
	// follower path — the seeded bug the cluster verifier must catch.
	splitBrainMutation bool
	// ackBeforeQuorumMutation answers a burst's writes right after the
	// local apply, neither replicated nor settled — the other seeded bug.
	ackBeforeQuorumMutation bool
}

// NewNode builds a cluster node over kv at the given topology. The node
// reads nothing from a KV journal; NewLocal enables one for the crash
// harness's verifier.
func NewNode(id uint32, kv *objstore.KV, topo Topology) *Node {
	return &Node{
		ID:        id,
		KV:        kv,
		topo:      topo,
		tracker:   NewTracker(topo.Quorum()),
		watermark: make(map[uint32]uint64),
		applied:   make(map[uint32][]Applied),
		trimmed:   make(map[uint32]uint64),
	}
}

// OnDeath registers a hook run once when the node's heap crashes.
func (n *Node) OnDeath(fn func()) { n.onDeath = fn }

// SetTopology installs a new topology (the coordinator's failover push).
// The quorum requirement is over the original membership and never changes.
func (n *Node) SetTopology(t Topology) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if t.Epoch() > n.topo.Epoch() {
		n.topo = t
	}
}

// Topology returns the node's current topology view.
func (n *Node) Topology() Topology {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.topo
}

// Dead reports whether the node's heap crashed.
func (n *Node) Dead() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dead
}

// MutateSplitBrain disables the follower's stale-epoch rejection: a deposed
// primary's appends are accepted as if its epoch were current. Test-only.
func (n *Node) MutateSplitBrain() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.splitBrainMutation = true
}

// MutateAckBeforeQuorum makes the coordinator path acknowledge writes that
// are durable only locally: a burst skips replicate and settle. Test-only.
func (n *Node) MutateAckBeforeQuorum() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ackBeforeQuorumMutation = true
}

// Watermark returns the node's applied watermark for an origin.
func (n *Node) Watermark(origin uint32) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.watermark[origin]
}

// AppliedLog returns a copy of the node's applied log for an origin.
func (n *Node) AppliedLog(origin uint32) []Applied {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Applied, len(n.applied[origin]))
	copy(out, n.applied[origin])
	return out
}

// CompactBelow discards origin's applied-log entries with Seq <= below
// (clamped to the applied watermark). Safe only when everything that may
// ever ask for this log again — REP backlog pushes, SUB catch-up — already
// holds it through below; SelfCompact computes that floor from what the
// alive peers have confirmed. This bounds the volatile applied log, which
// otherwise grows without limit in a long-running cluster; the persistent
// KV is unaffected.
func (n *Node) CompactBelow(origin uint32, below uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if w := n.watermark[origin]; below > w {
		below = w
	}
	base := n.trimmed[origin]
	if below <= base {
		return
	}
	cut := below - base
	log := n.applied[origin]
	if cut > uint64(len(log)) {
		cut = uint64(len(log))
	}
	// Copy the suffix so the old backing array (and the entry payloads it
	// pins) is released.
	n.applied[origin] = append([]Applied(nil), log[cut:]...)
	n.trimmed[origin] = base + cut
}

// SelfCompact bounds the node's applied logs without a coordinator (the
// multi-process potserve cluster mode, which has no failover driver): the
// node's own log is trimmed below the lowest watermark its alive peers
// have confirmed on their replication streams — a down peer (confirmed 0)
// pins the whole log, exactly the backlog it will need — and every other
// origin's log keeps a MaxRepEntries retention tail past this node's
// applied watermark, enough to serve one catch-up frame. The in-process
// coordinator and the crash harness never compact, so the harness's
// verifier audits full logs.
func (n *Node) SelfCompact() {
	t := n.Topology()
	floor := n.Watermark(n.ID)
	for _, tn := range t.Wire.Nodes {
		if tn.ID == n.ID || !tn.Alive {
			continue
		}
		ps := n.peer(tn.ID)
		ps.mu.Lock()
		known := ps.known
		ps.mu.Unlock()
		if known < floor {
			floor = known
		}
	}
	n.CompactBelow(n.ID, floor)
	for _, tn := range t.Wire.Nodes {
		if tn.ID == n.ID {
			continue
		}
		if w := n.Watermark(tn.ID); w > uint64(potserve.MaxRepEntries) {
			n.CompactBelow(tn.ID, w-uint64(potserve.MaxRepEntries))
		}
	}
}

// Seq returns the node's own log length (last assigned sequence).
func (n *Node) Seq() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.seq
}

// markDead flags the node dead and runs the death hook once.
func (n *Node) markDead() {
	n.mu.Lock()
	n.dead = true
	n.mu.Unlock()
	n.deathOnce.Do(func() {
		if n.onDeath != nil {
			n.onDeath()
		}
	})
}

// peerStream is one replication stream to a peer: pushes serialize on mu,
// conn is redialed after errors, and known tracks the peer's confirmed
// watermark for this node's own log. entries is the REP frame scratch;
// sent marks a frame in flight between replicate's two passes.
type peerStream struct {
	mu      sync.Mutex
	conn    *potserve.Client
	known   uint64
	entries []potserve.RepEntry
	sent    bool
}

// peer returns the stream for a peer node, creating it on first use.
func (n *Node) peer(id uint32) *peerStream {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	if n.peers == nil {
		n.peers = make(map[uint32]*peerStream)
	}
	ps, ok := n.peers[id]
	if !ok {
		ps = &peerStream{}
		n.peers[id] = ps
	}
	return ps
}

// Close tears down the node's replication streams.
func (n *Node) Close() {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	for id, ps := range n.peers {
		ps.mu.Lock()
		if ps.conn != nil {
			ps.conn.Close()
			ps.conn = nil
		}
		ps.mu.Unlock()
		delete(n.peers, id)
	}
}

// Exec implements potserve.Backend: a burst of one.
func (n *Node) Exec(req *potserve.Request, resp *potserve.Response) {
	reqs, resps := [1]potserve.Request{*req}, [1]potserve.Response{*resp}
	n.ExecBurst(reqs[:], resps[:])
	*resp = resps[0]
}

// refuse answers every request of a burst with the same error.
func refuse(resps []potserve.Response, msg string) {
	for i := range resps {
		resps[i] = potserve.Response{Status: potserve.StatusErr, Msg: msg}
	}
}

// ExecBurst implements potserve.BurstBackend. The requests run in order —
// reads serve locally after an ownership check, replication ops run the
// follower state machine, writes are applied locally — then the burst's
// writes are replicated once and each is settled by its own entry. A crash
// signal from the heap (armed nvmsim event, or any event after poisoning) is
// recovered here and turns into node death, exactly like a process crash
// under a real power cut.
func (n *Node) ExecBurst(reqs []potserve.Request, resps []potserve.Response) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := nvmsim.AsCrashSignal(r); !ok {
			panic(r)
		}
		n.markDead()
		// The responses never reach the client: the death hook closes the
		// server, tearing every connection down mid-flight. Fill refusals
		// anyway so an in-process caller sees coherent responses.
		refuse(resps, "cluster: node crashed")
	}()
	n.mu.Lock()
	dead, mutated := n.dead, n.ackBeforeQuorumMutation
	n.mu.Unlock()
	if dead {
		refuse(resps, "cluster: node is dead")
		return
	}
	var last potserve.RepEntry // the newest own-log entry the burst appended
	for i := range reqs {
		req, resp := &reqs[i], &resps[i]
		switch req.Op {
		case potserve.OpGet, potserve.OpScan, potserve.OpPing:
			n.execRead(req, resp)
		case potserve.OpPut, potserve.OpDel:
			if e, ok := n.apply(req, resp); ok {
				last = e
			}
		case potserve.OpRep:
			n.execRep(req, resp)
		case potserve.OpSub:
			n.execSub(req, resp)
		case potserve.OpAck:
			n.execAck(req, resp)
		case potserve.OpTopo:
			t := n.Topology()
			*resp = potserve.Response{Status: potserve.StatusOK, Topo: t.Wire}
		case potserve.OpTx:
			// Multi-key transactions would need a cross-node commit protocol;
			// the cluster tier serves single-key ops and scans only.
			*resp = potserve.Response{Status: potserve.StatusErr, Msg: "cluster: TX is not supported in cluster mode"}
		default:
			*resp = potserve.Response{Status: potserve.StatusErr, Msg: fmt.Sprintf("cluster: unhandled op %d", req.Op)}
		}
	}
	if last.Seq == 0 {
		return
	}
	if !mutated {
		n.replicate(last.Seq, last.Epoch)
	}
	for i := range reqs {
		if op := reqs[i].Op; op != potserve.OpPut && op != potserve.OpDel {
			continue
		}
		// apply left the entry's sequence in Seq, which is not part of a
		// write's wire response.
		seq := resps[i].Seq
		resps[i].Seq = 0
		if seq != 0 && !mutated && !n.tracker.Durable(seq) {
			// The write may be durable on a minority; without quorum it is
			// NOT acknowledged and the client must treat it as possibly-lost.
			resps[i] = potserve.Response{Status: potserve.StatusErr, Msg: "cluster: write did not reach quorum"}
		}
	}
}

// execRead serves GET/SCAN/PING locally. Every node applies every origin's
// log, so the local KV holds the full data set; GET still checks ownership
// — only the owner's copy reflects its latest acknowledged writes, a
// non-owner may lag the tail of the owner's log. SCAN answers from the
// local replica and the routing client merges per-owner results.
func (n *Node) execRead(req *potserve.Request, resp *potserve.Response) {
	if req.Op == potserve.OpGet {
		t := n.Topology()
		owner, ok := t.Owner(req.Key)
		if !ok || owner != n.ID {
			*resp = potserve.Response{Status: potserve.StatusNotOwner}
			return
		}
	}
	(&potserve.KVBackend{KV: n.KV}).Exec(req, resp)
}

// apply is the first step of the replicated commit: ownership check, then
// local durable apply + log append under wmu. It fills resp with the answer
// the client gets if the entry reaches quorum, its sequence in resp.Seq for
// the settle step; ok is false when the write was refused and not logged.
func (n *Node) apply(req *potserve.Request, resp *potserve.Response) (entry potserve.RepEntry, ok bool) {
	t := n.Topology()
	owner, ok := t.Owner(req.Key)
	if !ok || owner != n.ID {
		*resp = potserve.Response{Status: potserve.StatusNotOwner}
		return entry, false
	}

	// Local durable apply first: the entry must be on stable storage here
	// before any peer can be told about it, so a quorum ack implies the
	// entry is durable on every acking node including the coordinator. wmu
	// keeps per-key apply order equal to log order and is released before
	// any network traffic. The apply runs in a closure with deferred
	// unlocks: a crash signal out of the KV must not strand the mutex, or
	// every later handler (and Server.Close, which waits for them) hangs.
	del := req.Op == potserve.OpDel
	var created, existed bool
	err := func() error {
		n.wmu.Lock()
		defer n.wmu.Unlock()
		var err error
		if del {
			existed, err = n.KV.Delete(req.Key)
		} else {
			created, err = n.KV.Put(req.Key, req.Val)
		}
		if err != nil {
			return err
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		n.seq++
		epoch := n.topo.Epoch()
		entry = potserve.RepEntry{Seq: n.seq, Epoch: epoch, Key: req.Key, Val: req.Val, Del: del}
		n.watermark[n.ID] = entry.Seq
		n.applied[n.ID] = append(n.applied[n.ID], Applied{
			RepEntry: entry, Origin: n.ID, SenderEpoch: epoch, NodeEpoch: epoch,
		})
		return nil
	}()
	if err != nil {
		*resp = potserve.Response{Status: potserve.StatusErr, Msg: err.Error()}
		return entry, false
	}
	n.tracker.Ack(entry.Seq, n.ID)
	*resp = potserve.Response{Status: potserve.StatusOK, Created: created, Seq: entry.Seq}
	if del && !existed {
		resp.Status = potserve.StatusNotFound
	}
	return entry, true
}

// replicate is the second step, once per burst: every alive peer short of
// seq gets one REP frame carrying its whole unconfirmed suffix of this
// node's log, and only when a frame is on the wire to each of them are the
// acks awaited — one round trip per burst, not one per peer per write. The
// stream locks are held across it, taken in member order (every membership
// list is built sorted by id), so two bursts on one node cannot deadlock;
// the one that waited finds its entries confirmed by the other's frame and
// sends nothing.
func (n *Node) replicate(seq, epoch uint64) {
	t := n.Topology()
	for _, tn := range t.Wire.Nodes {
		if tn.ID == n.ID || !tn.Alive {
			continue
		}
		ps := n.peer(tn.ID)
		ps.mu.Lock()
		ps.sent = ps.known < seq && n.repSend(ps, tn.Addr, epoch)
	}
	for _, tn := range t.Wire.Nodes {
		if tn.ID == n.ID || !tn.Alive {
			continue
		}
		ps := n.peer(tn.ID)
		if ps.sent && n.repRecv(ps, tn.ID) {
			n.pushBacklog(ps, tn, seq, epoch)
		}
		ps.sent = false
		ps.mu.Unlock()
	}
}

// pushBacklog sends this node's log entries past the peer's confirmed
// watermark until the peer confirms at least seq, one MaxRepEntries frame
// per round trip. The loop matters: a backlog deeper than one frame (the
// peer was down, or a write burst outran it) must drain fully before the
// write is judged, or a healthy peer's ack would be missed and the client
// would get a spurious quorum failure. It stops at the first round that
// fails or makes no progress; the next burst redials and resumes. The
// caller holds ps.mu.
func (n *Node) pushBacklog(ps *peerStream, tn potserve.TopoNode, seq, epoch uint64) {
	for ps.known < seq && n.repSend(ps, tn.Addr, epoch) && n.repRecv(ps, tn.ID) {
	}
}

// repSend puts one REP frame on the wire to a peer: the log entries past its
// confirmed watermark, at most MaxRepEntries. Resuming from the confirmed
// watermark is what keeps racing bursts' pushes in order and gap-free —
// whichever frame lands first carries both bursts' entries. It reports
// whether an ack is now due; the caller holds ps.mu.
func (n *Node) repSend(ps *peerStream, addr string, epoch uint64) bool {
	n.mu.Lock()
	log := n.applied[n.ID]
	base := n.trimmed[n.ID]
	from := ps.known
	if from < base {
		// Entries at or below the compaction floor are confirmed durable on
		// every alive peer (the invariant compaction trims under); ps.known
		// is merely stale. Resume at the floor and let the REP response
		// watermark correct it.
		from = base
	}
	// Own-log entries are in order with Seq == base+index+1.
	idx := from - base
	if idx > uint64(len(log)) {
		idx = uint64(len(log))
	}
	end := uint64(len(log))
	if end-idx > uint64(potserve.MaxRepEntries) {
		end = idx + uint64(potserve.MaxRepEntries)
	}
	ps.entries = ps.entries[:0]
	for _, a := range log[idx:end] {
		ps.entries = append(ps.entries, a.RepEntry)
	}
	n.mu.Unlock()
	if len(ps.entries) == 0 {
		return false
	}
	if ps.conn == nil {
		c, err := dialPeer(addr)
		if err != nil {
			return false
		}
		ps.conn = c
	}
	if err := ps.conn.RepSend(n.ID, epoch, ps.entries); err != nil {
		ps.drop()
		return false
	}
	return true
}

// repRecv awaits the ack of repSend's frame — the peer's durable watermark
// for our log — and records it. It reports whether the peer made progress
// (a stale-epoch refusal or a stall is none); the caller holds ps.mu.
func (n *Node) repRecv(ps *peerStream, id uint32) bool {
	w, err := ps.conn.RepRecv()
	if err != nil {
		ps.drop()
		return false
	}
	n.tracker.Ack(w, id)
	if w <= ps.known {
		return false
	}
	ps.known = w
	return true
}

// drop closes the stream's connection: after an error or a timeout the
// response stream is out of sync. The round is a failed ack; the next redials.
func (ps *peerStream) drop() {
	ps.conn.Close()
	ps.conn = nil
}

// originLock returns the apply lock for one origin's log.
func (n *Node) originLock(origin uint32) *sync.Mutex {
	v, ok := n.repmu.Load(origin)
	if !ok {
		v, _ = n.repmu.LoadOrStore(origin, &sync.Mutex{})
	}
	return v.(*sync.Mutex)
}

// repChunk bounds the entries one follower transaction commits: the undo
// log caps a transaction's size.
const repChunk = 16

// execRep is the follower state machine: apply an origin's entries in
// sequence order exactly once, refuse stale-epoch senders, answer the
// durable watermark. The in-order, not-yet-applied run of a frame commits
// through KV.Batch, repChunk entries per transaction — one undo log and one
// fence per chunk, not per entry. A chunk is crash-atomic, and the watermark
// and the applied log advance only once it has committed.
func (n *Node) execRep(req *potserve.Request, resp *potserve.Response) {
	lk := n.originLock(req.Origin)
	lk.Lock()
	defer lk.Unlock()

	origin := req.Origin
	n.mu.Lock()
	nodeEpoch := n.topo.Epoch()
	mutated := n.splitBrainMutation
	// The origin lock makes this handler the only writer of the origin's
	// watermark, so w stays current below.
	w := n.watermark[origin]
	n.mu.Unlock()

	// Epoch fence: a sender below our epoch is a deposed primary (or a
	// partitioned one) — accepting its writes is exactly how split brain
	// corrupts a cluster, so the honest path refuses. The seeded mutation
	// skips this check and the verifier must catch the consequence.
	if !mutated && req.Epoch < nodeEpoch {
		*resp = potserve.Response{Status: potserve.StatusErr,
			Msg: fmt.Sprintf("cluster: stale epoch %d < %d", req.Epoch, nodeEpoch)}
		return
	}

	var ops [repChunk]objstore.BatchOp
	for entries := req.Entries; len(entries) > 0; {
		if entries[0].Seq <= w {
			entries = entries[1:] // duplicate delivery; applies are exactly-once
			continue
		}
		k := 0
		for k < len(entries) && k < repChunk && entries[k].Seq == w+uint64(k)+1 {
			ops[k] = objstore.BatchOp{Key: entries[k].Key, Val: entries[k].Val, Del: entries[k].Del}
			k++
		}
		if k == 0 {
			break // gap: answer the watermark, the sender re-sends from there
		}
		if err := n.KV.Batch(ops[:k]); err != nil {
			*resp = potserve.Response{Status: potserve.StatusErr, Msg: err.Error()}
			return
		}
		w += uint64(k)
		n.mu.Lock()
		n.watermark[origin] = w
		for _, e := range entries[:k] {
			n.applied[origin] = append(n.applied[origin], Applied{
				RepEntry: e, Origin: origin, SenderEpoch: req.Epoch, NodeEpoch: nodeEpoch,
			})
		}
		n.mu.Unlock()
		entries = entries[k:]
	}
	*resp = potserve.Response{Status: potserve.StatusOK, Seq: w}
}

// execSub answers an origin's applied log suffix (catch-up stream), at
// most MaxRepEntries per response — the subscriber resumes from the
// watermark its REP push confirmed. A request below the compaction floor
// is an explicit error, never a silent gap: the requester's replica can no
// longer be caught up from this node.
func (n *Node) execSub(req *potserve.Request, resp *potserve.Response) {
	n.mu.Lock()
	log := n.applied[req.Origin]
	base := n.trimmed[req.Origin]
	var out []potserve.RepEntry
	if req.Seq >= base {
		// Applied entries are in order with Seq == base+index+1.
		idx := req.Seq - base
		if idx < uint64(len(log)) {
			end := idx + uint64(potserve.MaxRepEntries)
			if end > uint64(len(log)) {
				end = uint64(len(log))
			}
			out = make([]potserve.RepEntry, 0, end-idx)
			for _, a := range log[idx:end] {
				out = append(out, a.RepEntry)
			}
		}
	}
	n.mu.Unlock()
	if req.Seq < base {
		*resp = potserve.Response{Status: potserve.StatusErr,
			Msg: fmt.Sprintf("cluster: origin %d log compacted through %d, cannot serve from %d", req.Origin, base, req.Seq)}
		return
	}
	*resp = potserve.Response{Status: potserve.StatusOK, Entries: out}
}

// execAck records a peer-reported durable watermark in the quorum tracker
// (the coordinator seeds a promoted primary's tracker this way).
func (n *Node) execAck(req *potserve.Request, resp *potserve.Response) {
	n.tracker.Ack(req.Seq, req.Origin)
	*resp = potserve.Response{Status: potserve.StatusOK}
}
