package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"potgo/internal/cluster"
	"potgo/internal/lincheck"
	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/potserve"
)

// The cluster campaign kills a WHOLE NODE mid-replication — an armed
// nvmsim event in the victim's persistence domain fires during a local
// apply, the node recovers the signal as its own death and tears its
// server down — lets the cluster fail over, and proves the surviving
// state is linearizable with the acknowledged history. The verification
// protocol stacks three layers:
//
//  1. Cluster-wide acked <= durable: every client write acknowledged
//     before the kill (quorum-acked) must appear in the survivors' merged
//     applied logs, in an (epoch, seq) order that embeds real time —
//     lincheck.CheckCluster, which also proves the epoch discipline and
//     single-ownership properties whose violation is split brain.
//  2. Replicated-state equality: folding the merged logs in (epoch, seq)
//     order must reproduce both the routed view (every Get/Scan through a
//     fresh client) and every survivor's local replica, and each
//     survivor's own KV journal must replay to the same state with
//     counter == journaled (the cluster-wide acked <= counter <=
//     journaled statement for the nodes that lived).
//  3. Victim-local recovery: the victim's heap is power-cycled under the
//     rotating policy and reattached; each shard's recovered op counter
//     must sit inside [0, journaled] and the journal prefix it names must
//     replay exactly to the recovered contents — the single-node
//     acked-prefix protocol, applied to the corpse.
//
// The split-brain mutation disables the followers' stale-epoch fence and
// stages a false-suspicion failover in which the deposed owner keeps
// serving; the campaign then REQUIRES CheckCluster to reject the merged
// logs (run under -expect-failure in CI). The ack-before-quorum mutation
// makes every coordinator answer a burst's writes right after the local
// apply and kills one; the campaign then REQUIRES CheckCluster to find the
// acknowledged writes that no survivor holds.

// ClusterSummary reports one cluster crash campaign.
type ClusterSummary struct {
	Tally
	AckedOps uint64 `json:"acked_ops"` // total acknowledged client writes
}

func (s ClusterSummary) String() string {
	return fmt.Sprintf("%d points (%d node kills fired, %d drained), %d acked writes, %d events spanned",
		s.Points, s.Fired, s.Completed, s.AckedOps, s.Span)
}

// probeUIDBase tags post-failover probe writes; worker uids use the low
// 48 bits only, so the spaces cannot collide.
const probeUIDBase = uint64(1) << 56

func clusterWorkerUID(worker, op int) uint64 {
	return uint64(worker+1)<<24 | uint64(op+1)
}

// maxClusterBurst bounds the pipelined bursts the workers send.
const maxClusterBurst = 8

// runClusterWorkers drives concurrent routing clients against the cluster
// until every worker finishes or gives up on the dying segment. Each worker
// sends seeded bursts of 1..maxClusterBurst pipelined ops, so a member
// replicates several writes per round trip and a kill can land mid-burst.
// Errors are forgiven once any member is dead — the machine died under the
// client — and fatal otherwise.
func runClusterWorkers(cl *cluster.Cluster, rec *lincheck.ClusterRecorder, opt Options) error {
	anyDead := func() bool {
		for _, m := range cl.Members {
			if m.Node.Dead() {
				return true
			}
		}
		return false
	}
	errs := make([]error, opt.Workers)
	var wg sync.WaitGroup
	for wi := 0; wi < opt.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			c, err := cluster.DialCluster(cl.Addrs())
			if err != nil {
				if !anyDead() {
					errs[wi] = fmt.Errorf("worker %d dial: %w", wi, err)
				}
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(mix64(opt.Seed ^ uint64(wi+101)))))
			var reqs []potserve.Request
			var pending []lincheck.ClusterPending // parallel to reqs; reads hold a zero value
			for i := 0; i < opt.Ops; i += len(reqs) {
				reqs, pending = reqs[:0], pending[:0]
				n := rng.Intn(maxClusterBurst) + 1
				if rest := opt.Ops - i; n > rest {
					n = rest
				}
				for j := 0; j < n; j++ {
					key := uint64(rng.Intn(opt.KeySpace) + 1)
					switch rng.Intn(10) {
					case 0: // delete
						reqs = append(reqs, potserve.Request{Op: potserve.OpDel, Key: key})
						pending = append(pending, rec.Begin(key, 0, true))
					case 1, 2: // read
						reqs = append(reqs, potserve.Request{Op: potserve.OpGet, Key: key})
						pending = append(pending, lincheck.ClusterPending{})
					default: // put, value = globally unique uid
						uid := clusterWorkerUID(wi, i+j)
						reqs = append(reqs, potserve.Request{Op: potserve.OpPut, Key: key, Val: uid})
						pending = append(pending, rec.Begin(key, uid, false))
					}
				}
				resps, err := c.Pipeline(reqs)
				if err != nil {
					if !anyDead() {
						errs[wi] = fmt.Errorf("worker %d burst: %w", wi, err)
						return
					}
					continue // casualty of the kill: the whole burst is unacked, keep going
				}
				for j, resp := range resps {
					if reqs[j].Op == potserve.OpGet {
						continue
					}
					switch resp.Status {
					case potserve.StatusOK, potserve.StatusNotFound:
						rec.Acked(pending[j])
					default: // a refusal (no quorum) is unacked
						if !anyDead() {
							errs[wi] = fmt.Errorf("worker %d key %d: status %d %s", wi, reqs[j].Key, resp.Status, resp.Msg)
							return
						}
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// gatherEntries flattens every listed member's applied logs (all origins)
// into the verifier's entry stream.
func gatherEntries(members []*cluster.Member, total int) []lincheck.ClusterEntry {
	var out []lincheck.ClusterEntry
	for _, m := range members {
		for origin := 0; origin < total; origin++ {
			for _, a := range m.Node.AppliedLog(uint32(origin)) {
				out = append(out, lincheck.ClusterEntry{
					Origin:      a.Origin,
					Node:        m.Node.ID,
					Seq:         a.Seq,
					EntryEpoch:  a.Epoch,
					SenderEpoch: a.SenderEpoch,
					NodeEpoch:   a.NodeEpoch,
					Key:         a.Key,
					Val:         a.Val,
					Del:         a.Del,
				})
			}
		}
	}
	return out
}

// verifyClusterState checks layer 2: the replayed model against the routed
// view, every survivor's local replica, and every survivor's KV journal.
func verifyClusterState(cl *cluster.Cluster, survivors []*cluster.Member, model map[uint64]uint64, opt Options) error {
	c, err := cluster.DialCluster(cl.Addrs())
	if err != nil {
		return fmt.Errorf("verify dial: %w", err)
	}
	defer c.Close()
	if err := checkKeys("routed view", c.Get, model, opt.KeySpace); err != nil {
		return err
	}
	if err := checkScan("routed view", c.Scan, model, opt.KeySpace); err != nil {
		return err
	}

	// Full replication: after catch-up every survivor's local replica and
	// its durable journal agree with the merged-log model.
	for _, m := range survivors {
		if err := checkKeys(fmt.Sprintf("node %d local replica", m.Node.ID), m.Node.KV.Get, model, opt.KeySpace); err != nil {
			return err
		}
		replayed := make(map[uint64]uint64)
		for i := 0; i < opt.Shards; i++ {
			journal := m.Node.KV.Journal(i)
			cnt, err := m.Node.KV.Counter(i)
			if err != nil {
				return fmt.Errorf("node %d shard %d counter: %w", m.Node.ID, i, err)
			}
			if cnt != uint64(len(journal)) {
				return fmt.Errorf("node %d shard %d: quiesced counter %d != journaled %d",
					m.Node.ID, i, cnt, len(journal))
			}
			for k, v := range objstore.ReplayKVJournal(journal, int(cnt)) {
				replayed[k] = v
			}
		}
		replay := func(k uint64) (uint64, bool, error) { v, ok := replayed[k]; return v, ok, nil }
		if err := checkKeys(fmt.Sprintf("node %d journal replay", m.Node.ID), replay, model, opt.KeySpace); err != nil {
			return err
		}
	}
	return nil
}

// withTrail adds the failing key's trail (lincheck.ClusterTrail) to a
// read that disagreed with the merged-log model; other errors pass as they
// are.
func withTrail(err error, writes []lincheck.ClusterWrite, entries []lincheck.ClusterEntry) error {
	var km *keyMismatch
	if !errors.As(err, &km) {
		return err
	}
	return fmt.Errorf("%w\n%s", err, lincheck.ClusterTrail(km.key, writes, entries))
}

// membersExcept lists cl's members but the one whose node is id.
func membersExcept(cl *cluster.Cluster, id uint32) []*cluster.Member {
	var out []*cluster.Member
	for _, m := range cl.Members {
		if m.Node.ID != id {
			out = append(out, m)
		}
	}
	return out
}

// newJournaledCluster builds the campaign's cluster and arms every member's
// KV journal before any client dials: the journal and the shard op counters
// are the verifier's oracle (acked <= counter <= journaled, DESIGN §5d),
// and a served member keeps neither.
func newJournaledCluster(opt Options, seed uint64) (*cluster.Cluster, error) {
	cl, err := cluster.NewLocal(opt.Nodes, opt.Shards, int64(seed), nil)
	if err != nil {
		return nil, err
	}
	for _, m := range cl.Members {
		m.Node.KV.EnableJournal()
	}
	return cl, nil
}

// clusterCampaign is the cluster campaign on the point loop: a fresh
// N-node cluster per point, whose victim is member point%N. Members own
// ring segments of different sizes, so the loop measures every member's
// span at point 0 and arms the victim within its own.
type clusterCampaign struct {
	opt    Options
	sum    *ClusterSummary
	cl     *cluster.Cluster
	victim int
	rec    *lincheck.ClusterRecorder
}

func (c *clusterCampaign) begin(point int) ([]*nvmsim.Domain, int, error) {
	cl, err := newJournaledCluster(c.opt, mix64(c.opt.Seed^uint64(point)^0xc1))
	if err != nil {
		return nil, 0, err
	}
	c.cl, c.victim = cl, point%c.opt.Nodes
	doms := make([]*nvmsim.Domain, len(cl.Members))
	for i, m := range cl.Members {
		doms[i] = m.Sh.Heap().NV
	}
	return doms, c.victim, nil
}

func (c *clusterCampaign) run(int) error {
	c.rec = lincheck.NewClusterRecorder()
	return runClusterWorkers(c.cl, c.rec, c.opt)
}

func (c *clusterCampaign) fired() bool { return c.cl.Members[c.victim].Node.Dead() }

// verify fails over from a killed victim and proves the moved segment
// accepts writes at the new epoch, or quiesces replication when nothing
// died, then runs the three verification layers.
func (c *clusterCampaign) verify(fired bool, pol nvmsim.Policy) error {
	cl, victim := c.cl, c.cl.Members[c.victim]
	survivors := membersExcept(cl, victim.Node.ID)
	if fired {
		// The probes join the acknowledged history the verifier audits.
		if err := cl.Failover(victim.Node.ID); err != nil {
			return fmt.Errorf("failover: %w", err)
		}
		pc, err := cluster.DialCluster(cl.Addrs())
		if err != nil {
			return fmt.Errorf("probe dial: %w", err)
		}
		defer pc.Close()
		for key := uint64(1); key <= uint64(min(c.opt.KeySpace, 4)); key++ {
			uid := probeUIDBase | key
			p := c.rec.Begin(key, uid, false)
			if _, err := pc.Put(key, uid); err != nil {
				return fmt.Errorf("probe put %d after failover: %w", key, err)
			}
			c.rec.Acked(p)
		}
	} else {
		// Full-replication equality below needs quiesced replication, and
		// audits every member.
		if err := cl.Sync(); err != nil {
			return fmt.Errorf("sync: %w", err)
		}
		survivors = append(survivors, victim)
	}
	writes := c.rec.Writes()
	c.sum.AckedOps += uint64(len(writes))

	// Layer 1: acked-prefix linearizability over the merged logs.
	entries := gatherEntries(survivors, c.opt.Nodes)
	if err := lincheck.CheckCluster(writes, entries); err != nil {
		return err
	}
	// Layer 2: replayed model == routed view == every survivor replica.
	if err := verifyClusterState(cl, survivors, lincheck.ReplayCluster(entries), c.opt); err != nil {
		return withTrail(err, writes, entries)
	}
	// Layer 3: the victim's corpse, power-cycled under pol, recovers to
	// the committed prefixes of its journals.
	if fired {
		if _, _, _, err := recoverPrefixes(victim.Sh, victim.Node.KV, fmt.Sprintf("node%d", c.victim), nil, pol, c.opt); err != nil {
			return fmt.Errorf("victim: %w", err)
		}
	}
	return nil
}

func (c *clusterCampaign) end() { c.cl.Close() }

// runCluster runs the cluster crash campaign, or under the SplitBrain or
// AckBeforeQuorum mutation the scenario that seeds that bug.
func runCluster(opt Options) (sum ClusterSummary, err error) {
	switch opt.Mutation {
	case SplitBrain:
		err = runClusterSplitBrain(opt, &sum)
	case AckBeforeQuorum:
		err = runClusterAckBeforeQuorum(opt, &sum)
	default:
		err = runPoints(opt, &clusterCampaign{opt: opt, sum: &sum}, &sum.Tally, true)
	}
	return sum, err
}

// runClusterSplitBrain stages the two-primaries scenario over the seeded
// fence bug: a false-suspicion failover deposes a healthy owner but the
// new topology is withheld from it, so the old owner keeps coordinating
// writes for its segment at the old epoch while the new owner serves the
// same keys at the new epoch. With the stale-epoch fence disabled both
// sets of writes reach quorum, and the verifier must reject the merged
// logs (sender-behind-node applies, dual ownership).
func runClusterSplitBrain(opt Options, sum *ClusterSummary) error {
	cl, err := newJournaledCluster(opt, mix64(opt.Seed^0xb5))
	if err != nil {
		return err
	}
	defer cl.Close()

	rec := lincheck.NewClusterRecorder()
	old, err := cluster.DialCluster(cl.Addrs())
	if err != nil {
		return err
	}
	defer old.Close()
	for key := uint64(1); key <= uint64(opt.KeySpace); key++ {
		uid := clusterWorkerUID(0, int(key))
		p := rec.Begin(key, uid, false)
		if _, err := old.Put(key, uid); err != nil {
			return fmt.Errorf("preload put %d: %w", key, err)
		}
		rec.Acked(p)
	}
	sum.AckedOps = uint64(opt.KeySpace)

	// Depose the owner of key 1 without telling it: it keeps serving its
	// old segment at the old epoch — the partitioned primary.
	deposed, ok := cl.Topology().Owner(1)
	if !ok {
		return fmt.Errorf("split-brain: empty topology")
	}
	oldEpoch := cl.Topology().Epoch()
	cl.MutateSplitBrain()
	if err := cl.FailoverExcept(deposed, deposed); err != nil {
		return fmt.Errorf("split-brain failover: %w", err)
	}

	// The stale client still routes key 1 to the deposed owner, which
	// accepts and replicates at the old epoch; the fenceless followers let
	// it through to quorum, so the client gets a real ack.
	if old.Topology().Epoch() != oldEpoch {
		return fmt.Errorf("split-brain: stale client refreshed unexpectedly")
	}
	pa := rec.Begin(1, probeUIDBase|1, false)
	if _, err := old.Put(1, probeUIDBase|1); err != nil {
		return fmt.Errorf("split-brain: deposed-owner put: %w", err)
	}
	rec.Acked(pa)

	// A fresh client sees the new topology and writes the same key through
	// the new owner — two primaries have now both acknowledged writes for
	// one key. Seed it away from the deposed member, which would hand out
	// its stale topology.
	var freshSeeds []string
	for _, m := range cl.Members {
		if m.Node.ID != deposed {
			freshSeeds = append(freshSeeds, m.Addr)
		}
	}
	fresh, err := cluster.DialCluster(freshSeeds)
	if err != nil {
		return err
	}
	defer fresh.Close()
	pb := rec.Begin(1, probeUIDBase|2, false)
	if _, err := fresh.Put(1, probeUIDBase|2); err != nil {
		return fmt.Errorf("split-brain: new-owner put: %w", err)
	}
	rec.Acked(pb)

	entries := gatherEntries(cl.Members, opt.Nodes)
	if err := lincheck.CheckCluster(rec.Writes(), entries); err != nil {
		return fmt.Errorf("cluster verifier rejected the split-brain history (as it must): %w", err)
	}
	return nil
}

// runClusterAckBeforeQuorum stages the lost-ack scenario over the seeded
// settle bug: every member answers a burst's writes right after the local
// apply, a client gets the whole keyspace acknowledged in pipelined bursts,
// then the owner of key 1 is shut down and failed over. What it
// acknowledged never left it, so the verifier must find acked uids
// missing from every surviving log.
func runClusterAckBeforeQuorum(opt Options, sum *ClusterSummary) error {
	cl, err := newJournaledCluster(opt, mix64(opt.Seed^0xa9))
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, m := range cl.Members {
		m.Node.MutateAckBeforeQuorum()
	}

	rec := lincheck.NewClusterRecorder()
	c, err := cluster.DialCluster(cl.Addrs())
	if err != nil {
		return err
	}
	defer c.Close()
	var reqs []potserve.Request
	var pending []lincheck.ClusterPending
	for key := uint64(1); key <= uint64(opt.KeySpace); key++ {
		uid := clusterWorkerUID(0, int(key))
		reqs = append(reqs, potserve.Request{Op: potserve.OpPut, Key: key, Val: uid})
		pending = append(pending, rec.Begin(key, uid, false))
		if len(reqs) < maxClusterBurst && key < uint64(opt.KeySpace) {
			continue
		}
		resps, err := c.Pipeline(reqs)
		if err != nil {
			return fmt.Errorf("ack-before-quorum: burst: %w", err)
		}
		for j, resp := range resps {
			if resp.Status != potserve.StatusOK {
				return fmt.Errorf("ack-before-quorum: put %d: status %d %s", reqs[j].Key, resp.Status, resp.Msg)
			}
			rec.Acked(pending[j])
		}
		reqs, pending = reqs[:0], pending[:0]
	}
	sum.AckedOps = uint64(opt.KeySpace)

	dead, ok := cl.Topology().Owner(1)
	if !ok {
		return fmt.Errorf("ack-before-quorum: empty topology")
	}
	cl.Members[dead].Srv.Close()
	if err := cl.Failover(dead); err != nil {
		return fmt.Errorf("ack-before-quorum: failover: %w", err)
	}
	if err := lincheck.CheckCluster(rec.Writes(), gatherEntries(membersExcept(cl, dead), opt.Nodes)); err != nil {
		return fmt.Errorf("cluster verifier rejected the unreplicated acks (as it must): %w", err)
	}
	return nil
}
