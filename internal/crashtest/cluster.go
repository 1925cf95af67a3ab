package crashtest

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"potgo/internal/cluster"
	"potgo/internal/lincheck"
	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/obs"
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
type ClusterOptions struct {
	// Seed drives workload streams, kill-point sampling and policies.
	Seed uint64 `json:"seed"`
	// Nodes is the member count (>= 3 so a quorum survives one death).
	Nodes int `json:"nodes"`
	// Shards is each member's heap lock-shard count.
	Shards int `json:"shards"`
	// Workers is the number of concurrent routing clients.
	Workers int `json:"workers"`
	// OpsPerWorker bounds each worker's operation count per point.
	OpsPerWorker int `json:"ops_per_worker"`
	// Points is the number of kill points sampled (point 0 is always the
	// unarmed baseline that also measures every member's event span).
	Points int `json:"points"`
	// KeySpace is the key range [1, KeySpace] the workload churns.
	KeySpace int `json:"key_space"`
	// Policies rotate across kill points (the victim's power-cycle).
	Policies []nvmsim.Kind `json:"-"`
	// MutateSplitBrain seeds the stale-epoch-fence bug and stages the
	// two-primaries scenario; the campaign then fails unless the verifier
	// rejects the history.
	MutateSplitBrain bool `json:"-"`
	// MutateAckBeforeQuorum seeds the unreplicated-ack bug on every member
	// and kills a coordinator; the campaign then fails unless the verifier
	// misses the writes it acknowledged.
	MutateAckBeforeQuorum bool `json:"-"`
	// Obs, when non-nil, receives campaign counters under
	// "crashtest.cluster.".
	Obs *obs.Registry `json:"-"`
}

// DefaultClusterOptions returns the CI smoke configuration.
func DefaultClusterOptions() ClusterOptions {
	return ClusterOptions{
		Seed:         1,
		Nodes:        3,
		Shards:       2,
		Workers:      3,
		OpsPerWorker: 40,
		Points:       6,
		KeySpace:     32,
		Policies:     []nvmsim.Kind{nvmsim.DropAll, nvmsim.KeepRandom, nvmsim.Torn},
	}
}

// ClusterSummary reports one cluster crash campaign.
type ClusterSummary struct {
	Points    int    `json:"points"`
	Fired     int    `json:"fired"`     // points where the armed kill actually hit
	Completed int    `json:"completed"` // points that drained before the arm point
	AckedOps  uint64 `json:"acked_ops"` // total acknowledged client writes
	Span      uint64 `json:"event_span"`
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
func runClusterWorkers(cl *cluster.Cluster, rec *lincheck.ClusterRecorder, opt ClusterOptions) error {
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
			for i := 0; i < opt.OpsPerWorker; i += len(reqs) {
				reqs, pending = reqs[:0], pending[:0]
				n := rng.Intn(maxClusterBurst) + 1
				if rest := opt.OpsPerWorker - i; n > rest {
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
func verifyClusterState(cl *cluster.Cluster, survivors []*cluster.Member, model map[uint64]uint64, opt ClusterOptions) error {
	c, err := cluster.DialCluster(cl.Addrs())
	if err != nil {
		return fmt.Errorf("verify dial: %w", err)
	}
	defer c.Close()
	if err := checkKeys("routed view", c.Get, model, opt.KeySpace); err != nil {
		return err
	}
	scan, err := c.Scan(0, opt.KeySpace+64)
	if err != nil {
		return fmt.Errorf("routed scan: %w", err)
	}
	if len(scan) != len(model) {
		return fmt.Errorf("routed scan returned %d pairs, merged logs hold %d", len(scan), len(model))
	}
	keys := make([]uint64, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, k := range keys {
		if scan[i].Key != k || scan[i].Val != model[k] {
			return fmt.Errorf("routed scan[%d] = (%d,%d), want (%d,%d)", i, scan[i].Key, scan[i].Val, k, model[k])
		}
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
		if len(replayed) != len(model) {
			return fmt.Errorf("node %d: journal replays to %d keys, merged logs to %d",
				m.Node.ID, len(replayed), len(model))
		}
		for k, v := range model {
			if replayed[k] != v {
				return fmt.Errorf("node %d key %d: journal replays to %d, merged logs to %d",
					m.Node.ID, k, replayed[k], v)
			}
		}
	}
	return nil
}

// verifyVictimLocal checks layer 3: power-cycle the victim's heap under
// pol, reattach, and require each shard's recovered counter to name a
// journal prefix that replays exactly to the recovered contents.
func verifyVictimLocal(victim *cluster.Member, victimIdx int, pol nvmsim.Policy, opt ClusterOptions) error {
	if _, err := victim.Sh.Crash(pol); err != nil {
		return fmt.Errorf("victim crash: %w", err)
	}
	kv2, err := objstore.OpenKV(victim.Sh, fmt.Sprintf("node%d", victimIdx))
	if err != nil {
		return fmt.Errorf("victim reattach: %w", err)
	}
	total, err := kv2.Check()
	if err != nil {
		return fmt.Errorf("victim structure invariants: %w", err)
	}
	model := make(map[uint64]uint64)
	for i := 0; i < opt.Shards; i++ {
		journal := victim.Node.KV.Journal(i)
		cnt, err := kv2.Counter(i)
		if err != nil {
			return fmt.Errorf("victim shard %d counter: %w", i, err)
		}
		if cnt > uint64(len(journal)) {
			return fmt.Errorf("victim shard %d: recovered counter %d beyond journaled %d",
				i, cnt, len(journal))
		}
		for k, v := range objstore.ReplayKVJournal(journal, int(cnt)) {
			model[k] = v
		}
	}
	if total != len(model) {
		return fmt.Errorf("victim: %d keys recovered, committed prefixes replay to %d", total, len(model))
	}
	return checkKeys("recovered victim", kv2.Get, model, opt.KeySpace)
}

// checkKeys reads every key of [1, keySpace] through get and requires the
// model's value, or absence where the model holds none.
func checkKeys(view string, get func(uint64) (uint64, bool, error), model map[uint64]uint64, keySpace int) error {
	for key := uint64(1); key <= uint64(keySpace); key++ {
		val, ok, err := get(key)
		if err != nil {
			return fmt.Errorf("%s: get %d: %w", view, key, err)
		}
		if want, wantOK := model[key]; ok != wantOK || (ok && val != want) {
			return fmt.Errorf("%s: key %d reads (%d,%v), the model says (%d,%v)", view, key, val, ok, want, wantOK)
		}
	}
	return nil
}

// newJournaledCluster builds the campaign's cluster and arms every member's
// KV journal before any client dials: the journal and the shard op counters
// are the verifier's oracle (acked <= counter <= journaled, DESIGN §5d),
// and a served member keeps neither.
func newJournaledCluster(opt ClusterOptions, seed uint64) (*cluster.Cluster, error) {
	cl, err := cluster.NewLocal(opt.Nodes, opt.Shards, int64(seed), nil)
	if err != nil {
		return nil, err
	}
	for _, m := range cl.Members {
		m.Node.KV.EnableJournal()
	}
	return cl, nil
}

// RunCluster runs the cluster crash campaign: a fresh N-node cluster per
// point, an armed whole-node kill mid-replication (point 0 stays unarmed
// to measure the members' event spans), failover, and the three-layer
// verification protocol. With MutateSplitBrain set it instead stages the
// two-primaries scenario, with MutateAckBeforeQuorum the lost-ack one, and
// fails unless the verifier rejects it.
func RunCluster(opt ClusterOptions) (ClusterSummary, error) {
	if opt.Nodes < 3 {
		return ClusterSummary{}, fmt.Errorf("crashtest: cluster campaign needs >= 3 nodes, got %d", opt.Nodes)
	}
	if opt.Workers <= 0 || opt.Shards <= 0 || opt.OpsPerWorker <= 0 || opt.Points <= 0 {
		return ClusterSummary{}, fmt.Errorf("crashtest: cluster options need positive workers/shards/ops/points")
	}
	if opt.KeySpace <= 0 {
		opt.KeySpace = 32
	}
	if len(opt.Policies) == 0 {
		opt.Policies = []nvmsim.Kind{nvmsim.DropAll}
	}
	if opt.MutateSplitBrain {
		return runClusterSplitBrain(opt)
	}
	if opt.MutateAckBeforeQuorum {
		return runClusterAckBeforeQuorum(opt)
	}
	sum := ClusterSummary{Points: opt.Points}

	var bump func(name string, d uint64)
	if opt.Obs != nil {
		bump = func(name string, d uint64) { opt.Obs.Counter("crashtest.cluster." + name).Add(d) }
	} else {
		bump = func(string, uint64) {}
	}

	// spans[i] is member i's event span over the workload, measured at the
	// unarmed point 0. Members own ring segments of different sizes, so a
	// kill point drawn from another member's span would often lie past the
	// victim's last event and never fire.
	spans := make([]uint64, opt.Nodes)
	for point := 0; point < opt.Points; point++ {
		err := func() error {
			victimIdx := point % opt.Nodes
			cl, err := newJournaledCluster(opt, mix64(opt.Seed^uint64(point)^0xc1))
			if err != nil {
				return err
			}
			defer cl.Close()
			victim := cl.Members[victimIdx]
			h := victim.Sh.Heap()

			polKind := opt.Policies[point%len(opt.Policies)]
			pol := nvmsim.Policy{Kind: polKind, Seed: mix64(opt.Seed ^ uint64(point) ^ 0xcc)}

			startE := h.NV.Events()
			armAt := uint64(0)
			if point > 0 {
				armAt = startE + 1 + mix64(opt.Seed^uint64(point))%spans[victimIdx]
				h.NV.Arm(armAt)
			} else {
				for i, m := range cl.Members {
					spans[i] = m.Sh.Heap().NV.Events()
				}
			}

			rec := lincheck.NewClusterRecorder()
			if err := runClusterWorkers(cl, rec, opt); err != nil {
				return fmt.Errorf("point %d: %w", point, err)
			}
			if point == 0 {
				for i, m := range cl.Members {
					spans[i] = m.Sh.Heap().NV.Events() - spans[i]
					if spans[i] == 0 {
						return fmt.Errorf("crashtest: baseline run produced no events on member %d", i)
					}
				}
				sum.Span = spans[victimIdx]
			}
			h.NV.Disarm() // an unreached arm point must not fire during verification

			fired := victim.Node.Dead()
			survivors := make([]*cluster.Member, 0, opt.Nodes)
			for i, m := range cl.Members {
				if i != victimIdx {
					survivors = append(survivors, m)
				}
			}
			if fired {
				sum.Fired++
				bump("fired", 1)
				// The kill hit mid-replication: fail over, then prove the moved
				// segment accepts writes at the new epoch (the probes join the
				// acknowledged history the verifier audits).
				if err := cl.Failover(victim.Node.ID); err != nil {
					return fmt.Errorf("point %d: failover: %w", point, err)
				}
				pc, err := cluster.DialCluster(cl.Addrs())
				if err != nil {
					return fmt.Errorf("point %d: probe dial: %w", point, err)
				}
				probes := 0
				for key := uint64(1); key <= uint64(opt.KeySpace) && probes < 4; key++ {
					uid := probeUIDBase | key
					p := rec.Begin(key, uid, false)
					if _, err := pc.Put(key, uid); err != nil {
						pc.Close()
						return fmt.Errorf("point %d: probe put %d after failover: %w", point, key, err)
					}
					rec.Acked(p)
					probes++
				}
				pc.Close()
			} else {
				sum.Completed++
				bump("completed", 1)
				// Nothing died: quiesce replication so the full-replication
				// equality checks below are meaningful, and audit all members.
				if err := cl.Sync(); err != nil {
					return fmt.Errorf("point %d: sync: %w", point, err)
				}
				survivors = append(survivors, victim)
			}
			writes := rec.Writes()
			sum.AckedOps += uint64(len(writes))

			// Layer 1: acked-prefix linearizability over the merged logs.
			entries := gatherEntries(survivors, opt.Nodes)
			if err := lincheck.CheckCluster(writes, entries); err != nil {
				return fmt.Errorf("point %d (arm=%d, policy=%s, fired=%v): %w",
					point, armAt, polKind, fired, err)
			}
			// Layer 2: replayed model == routed view == every survivor replica.
			model := lincheck.ReplayCluster(entries)
			if err := verifyClusterState(cl, survivors, model, opt); err != nil {
				return fmt.Errorf("point %d (arm=%d, policy=%s, fired=%v): %w",
					point, armAt, polKind, fired, err)
			}
			// Layer 3: the victim's corpse recovers to a committed prefix.
			if fired {
				if err := verifyVictimLocal(victim, victimIdx, pol, opt); err != nil {
					return fmt.Errorf("point %d (arm=%d, policy=%s): %w", point, armAt, polKind, err)
				}
			}
			return nil
		}()
		if err != nil {
			return sum, err
		}
		bump("points", 1)
	}
	return sum, nil
}

// runClusterSplitBrain stages the two-primaries scenario over the seeded
// fence bug: a false-suspicion failover deposes a healthy owner but the
// new topology is withheld from it, so the old owner keeps coordinating
// writes for its segment at the old epoch while the new owner serves the
// same keys at the new epoch. With the stale-epoch fence disabled both
// sets of writes reach quorum; the merged logs must then FAIL the
// verifier (sender-behind-node applies, dual ownership). The campaign
// returns the verifier's rejection as its own error, for -expect-failure
// gates; a nil return means the bug slipped through.
func runClusterSplitBrain(opt ClusterOptions) (ClusterSummary, error) {
	sum := ClusterSummary{Points: 1}
	cl, err := newJournaledCluster(opt, mix64(opt.Seed^0xb5))
	if err != nil {
		return sum, err
	}
	defer cl.Close()

	rec := lincheck.NewClusterRecorder()
	old, err := cluster.DialCluster(cl.Addrs())
	if err != nil {
		return sum, err
	}
	defer old.Close()
	for key := uint64(1); key <= uint64(opt.KeySpace); key++ {
		uid := clusterWorkerUID(0, int(key))
		p := rec.Begin(key, uid, false)
		if _, err := old.Put(key, uid); err != nil {
			return sum, fmt.Errorf("preload put %d: %w", key, err)
		}
		rec.Acked(p)
	}
	sum.AckedOps = uint64(opt.KeySpace)

	// Depose the owner of key 1 without telling it: it keeps serving its
	// old segment at the old epoch — the partitioned primary.
	deposed, ok := cl.Topology().Owner(1)
	if !ok {
		return sum, fmt.Errorf("split-brain: empty topology")
	}
	oldEpoch := cl.Topology().Epoch()
	cl.MutateSplitBrain()
	if err := cl.FailoverExcept(deposed, deposed); err != nil {
		return sum, fmt.Errorf("split-brain failover: %w", err)
	}

	// The stale client still routes key 1 to the deposed owner, which
	// accepts and replicates at the old epoch; the fenceless followers let
	// it through to quorum, so the client gets a real ack.
	if old.Topology().Epoch() != oldEpoch {
		return sum, fmt.Errorf("split-brain: stale client refreshed unexpectedly")
	}
	pa := rec.Begin(1, probeUIDBase|1, false)
	if _, err := old.Put(1, probeUIDBase|1); err != nil {
		return sum, fmt.Errorf("split-brain: deposed-owner put: %w", err)
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
		return sum, err
	}
	defer fresh.Close()
	pb := rec.Begin(1, probeUIDBase|2, false)
	if _, err := fresh.Put(1, probeUIDBase|2); err != nil {
		return sum, fmt.Errorf("split-brain: new-owner put: %w", err)
	}
	rec.Acked(pb)

	entries := gatherEntries(cl.Members, opt.Nodes)
	if err := lincheck.CheckCluster(rec.Writes(), entries); err != nil {
		return sum, fmt.Errorf("cluster verifier rejected the split-brain history (as it must): %w", err)
	}
	return sum, nil
}

// runClusterAckBeforeQuorum stages the lost-ack scenario over the seeded
// settle bug: every member answers a burst's writes right after the local
// apply, a client gets the whole keyspace acknowledged in pipelined bursts,
// then the owner of key 1 is shut down and failed over. What it
// acknowledged never left it, so the survivors' merged logs must FAIL the
// verifier (acked uid missing from every surviving log). Like the
// split-brain campaign it returns the rejection as its own error; a nil
// return means the bug slipped through.
func runClusterAckBeforeQuorum(opt ClusterOptions) (ClusterSummary, error) {
	sum := ClusterSummary{Points: 1}
	cl, err := newJournaledCluster(opt, mix64(opt.Seed^0xa9))
	if err != nil {
		return sum, err
	}
	defer cl.Close()
	for _, m := range cl.Members {
		m.Node.MutateAckBeforeQuorum()
	}

	rec := lincheck.NewClusterRecorder()
	c, err := cluster.DialCluster(cl.Addrs())
	if err != nil {
		return sum, err
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
			return sum, fmt.Errorf("ack-before-quorum: burst: %w", err)
		}
		for j, resp := range resps {
			if resp.Status != potserve.StatusOK {
				return sum, fmt.Errorf("ack-before-quorum: put %d: status %d %s", reqs[j].Key, resp.Status, resp.Msg)
			}
			rec.Acked(pending[j])
		}
		reqs, pending = reqs[:0], pending[:0]
	}
	sum.AckedOps = uint64(opt.KeySpace)

	dead, ok := cl.Topology().Owner(1)
	if !ok {
		return sum, fmt.Errorf("ack-before-quorum: empty topology")
	}
	cl.Members[dead].Srv.Close()
	if err := cl.Failover(dead); err != nil {
		return sum, fmt.Errorf("ack-before-quorum: failover: %w", err)
	}
	var survivors []*cluster.Member
	for _, m := range cl.Members {
		if m.Node.ID != dead {
			survivors = append(survivors, m)
		}
	}
	if err := lincheck.CheckCluster(rec.Writes(), gatherEntries(survivors, opt.Nodes)); err != nil {
		return sum, fmt.Errorf("cluster verifier rejected the unreplicated acks (as it must): %w", err)
	}
	return sum, nil
}
