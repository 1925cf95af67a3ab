package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"potgo/internal/cluster"
	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/oid"
	"potgo/internal/pmem"
	"potgo/internal/potserve"
)

// Fixed shape of every serving workload. Two connections; eight shards is
// potserve's default. A key space of one million exhausts the eight 4 MiB
// shard pools after about four million writes; 100 000 keys stay far from
// that and load in under two seconds. The cluster loads its keys through
// quorum writes at about a tenth of the single node's speed, so its key
// space is smaller again.
//
// A serving workload runs on one P (serveProcs): clients, servers and
// replication streams are goroutines of one thread that never sleeps while
// a closed loop runs. With a P per core every batch is handed from a client
// on one thread to a server on the other and back, each hand-over wakes a
// parked thread, and a parked thread is a halted virtual CPU that the host
// has to schedule again: on a busy host that wait, not the program, set the
// figures (the same code spread by 30-38% over ten runs), while the second
// core bought 5% of throughput. What one P cannot show is contention: locks
// are never fought over and a group commit covers one committer.
const (
	conns           = 2
	serveProcs      = 1
	shards          = 8
	keySpace        = 100000
	clusterKeySpace = 40000
	tick            = time.Millisecond
	kvPrefix        = "bench"
	members         = 3
	// quickKeys is the key space of a -quick smoke run.
	quickKeys = 4000
)

// serveSpec is one serving workload. Phase sizes are operation counts, not
// durations, so per-operation counts and memory compare across commits; the
// per-second figures below turn --seconds into those counts and were chosen
// so that the two timed phases together last about --seconds at the commit
// that introduced the benchmark (see README.md, "Rates and limits").
type serveSpec struct {
	keys        int
	clustered   bool
	halfPreload bool // preload every other row of keys, not all
	mix         opMix
	theta       float64 // zipfian skew; 0 draws keys uniformly
	depth       int     // closed-loop requests in flight per connection
	closedRate  int     // closed-loop timed ops per second of its half
	openRate    int     // open-loop offered load, ops/s
	limit       time.Duration
}

var serveSpecs = map[string]serveSpec{
	"serve_read": {
		keys: keySpace, mix: opMix{getPct: 95, putPct: 5}, theta: 0.99,
		depth: 16, closedRate: 440000, openRate: 140000, limit: 2 * time.Millisecond,
	},
	"serve_write": {
		keys: keySpace, halfPreload: true, mix: opMix{putPct: 80},
		depth: 16, closedRate: 110000, openRate: 40000, limit: 5 * time.Millisecond,
	},
	"cluster_mixed": {
		keys: clusterKeySpace, clustered: true, halfPreload: true,
		mix:   opMix{getPct: 50, putPct: 40},
		depth: 16, closedRate: 33000, openRate: 10000, limit: 20 * time.Millisecond,
	},
}

// keySpace is the workload's key space, or a -quick smoke's.
func (sp serveSpec) keySpace(quick bool) int {
	if quick {
		return quickKeys
	}
	return sp.keys
}

// sizes turns the run length into phase sizes.
type sizes struct {
	warmOps, closedOps int // per connection
	perTick, ticks     int
}

func (sp serveSpec) sizes(seconds int, quick bool) sizes {
	// -seconds covers the closed-loop and the open-loop phase, half each.
	half := float64(seconds) / 2
	z := sizes{
		closedOps: int(float64(sp.closedRate)*half) / conns / sp.depth * sp.depth,
		perTick:   sp.openRate / 1000 / conns,
		ticks:     int(half * 1000),
	}
	if quick {
		z.closedOps, z.ticks = 2000/sp.depth*sp.depth, 200
	}
	z.warmOps = z.closedOps / 12
	return z
}

// stack is a running system under test with its load generator attached.
type stack struct {
	workers []*worker
	heaps   []*pmem.Sharded
	kvs     []*objstore.KV
	cl      *cluster.Cluster // nil on a single node
	srv     *potserve.Server
	closers []func()
}

func (st *stack) close() {
	for _, c := range st.closers {
		c()
	}
	switch {
	case st.cl != nil:
		st.cl.Close()
	case st.srv != nil:
		st.srv.Close()
	}
}

// setUp builds the system, dials the connections and preloads the keys:
// everything a run pays before its first measured request.
func setUp(sp serveSpec, seed uint64, keys int) (*stack, error) {
	st := &stack{}
	var z *zipf
	if sp.theta > 0 {
		z = newZipf(keys/conns, sp.theta)
	}
	var addrs []string
	if sp.clustered {
		cl, err := cluster.NewLocal(members, shards, int64(seed), nil)
		if err != nil {
			return nil, err
		}
		st.cl = cl
		addrs = cl.Addrs()
		for _, m := range cl.Members {
			st.heaps = append(st.heaps, m.Sh)
			st.kvs = append(st.kvs, m.Node.KV)
		}
	} else {
		sh, err := pmem.NewSharded(pmem.NewStore(), shards, int64(seed))
		if err != nil {
			return nil, err
		}
		kv, err := objstore.CreateKV(sh, kvPrefix)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		st.srv = potserve.Serve(ln, kv, nil)
		st.heaps, st.kvs = []*pmem.Sharded{sh}, []*objstore.KV{kv}
		addrs = []string{st.srv.Addr()}
	}
	for c := 0; c < conns; c++ {
		w := &worker{s: newStream(seed, c, conns, shards, keys/conns, sp.mix, z)}
		if sp.clustered {
			cc, err := cluster.DialCluster(addrs)
			if err != nil {
				st.close()
				return nil, err
			}
			w.p = clusterPipe{cc}
			st.closers = append(st.closers, cc.Close)
		} else {
			pc, err := potserve.Dial(addrs[0])
			if err != nil {
				st.close()
				return nil, err
			}
			w.p = servePipe{pc}
			st.closers = append(st.closers, func() { pc.Close() })
		}
		st.workers = append(st.workers, w)
	}
	if err := preload(st.workers, sp.halfPreload); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// counters is one reading of every public counter the layers keep.
type counters struct {
	heap      pmem.HeapStats
	events    uint64
	fallbacks uint64
	mallocs   uint64
	gcPauseNs uint64
	gets      int64
	writes    int64
}

// read sums the counters over every heap. The persist-event count is not
// atomic, so read is only called between phases, when no request is in
// flight.
func (st *stack) read() counters {
	var c counters
	for i, sh := range st.heaps {
		s := sh.Heap().StatsSnapshot()
		c.heap.TxCommits += s.TxCommits
		c.heap.UndoBytes += s.UndoBytes
		c.heap.UndoRecords += s.UndoRecords
		c.heap.AllocBytes += s.AllocBytes
		c.heap.GroupCommits += s.GroupCommits
		c.heap.GroupCommitTxns += s.GroupCommitTxns
		c.heap.MVCCPublishes += s.MVCCPublishes
		c.heap.MVCCReclaimed += s.MVCCReclaimed
		c.events += sh.Heap().NV.Events()
		c.fallbacks += st.kvs[i].SnapshotFallbacks()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcPauseNs = ms.Mallocs, ms.PauseTotalNs
	for _, w := range st.workers {
		c.gets += w.gets
		c.writes += w.writes
	}
	return c
}

func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounts turns two counter readings around a phase into the per-layer
// count metrics.
func layerCounts(m map[string]float64, a, b counters) {
	writes := float64(b.writes - a.writes)
	ops := writes + float64(b.gets-a.gets)
	m["pmem.tx_per_write"] = per(float64(b.heap.TxCommits-a.heap.TxCommits), writes)
	m["pmem.undo_bytes_per_write"] = per(float64(b.heap.UndoBytes-a.heap.UndoBytes), writes)
	m["pmem.undo_records_per_write"] = per(float64(b.heap.UndoRecords-a.heap.UndoRecords), writes)
	m["pmem.alloc_bytes_per_write"] = per(float64(b.heap.AllocBytes-a.heap.AllocBytes), writes)
	m["pmem.fences_per_write"] = per(float64(b.heap.GroupCommits-a.heap.GroupCommits), writes)
	m["pmem.groupcommit_batch"] = per(float64(b.heap.GroupCommitTxns-a.heap.GroupCommitTxns),
		float64(b.heap.GroupCommits-a.heap.GroupCommits))
	m["pmem.mvcc_publishes_per_write"] = per(float64(b.heap.MVCCPublishes-a.heap.MVCCPublishes), writes)
	m["pmem.mvcc_versions_unreclaimed"] = float64(b.heap.MVCCPublishes - b.heap.MVCCReclaimed)
	m["nvmsim.events_per_write"] = per(float64(b.events-a.events), writes)
	m["objstore.snapshot_fallback_share"] = per(float64(b.fallbacks-a.fallbacks), float64(b.gets-a.gets))
	m["runtime.allocs_per_op"] = per(float64(b.mallocs-a.mallocs), ops)
	m["runtime.gc_pause_ms"] = float64(b.gcPauseNs-a.gcPauseNs) / 1e6
}

// lagSampler polls, while a phase runs, how far any member's copy of any
// origin's log trails that origin.
type lagSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  uint64
}

func startLagSampler(cl *cluster.Cluster) *lagSampler {
	ls := &lagSampler{stop: make(chan struct{})}
	ls.wg.Add(1)
	go func() {
		defer ls.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ls.stop:
				return
			case <-t.C:
				for _, o := range cl.Members {
					seq := o.Node.Seq()
					for _, m := range cl.Members {
						if w := m.Node.Watermark(o.Node.ID); seq > w && seq-w > ls.max {
							ls.max = seq - w
						}
					}
				}
			}
		}
	}()
	return ls
}

func (ls *lagSampler) finish() uint64 {
	close(ls.stop)
	ls.wg.Wait()
	return ls.max
}

// spaceAmp is bytes the allocators have handed out per byte of live user
// data (16 bytes a key); on a cluster every replica's bytes count.
func (st *stack) spaceAmp() (float64, error) {
	var allocated uint64
	for _, sh := range st.heaps {
		for id := 1; id <= shards; id++ {
			p, ok := sh.Heap().Pool(oid.PoolID(id))
			if !ok {
				return 0, fmt.Errorf("pool %d is not open", id)
			}
			allocated += sh.Heap().AllocatedBytes(p)
		}
	}
	live, err := st.kvs[0].Check()
	if err != nil {
		return 0, fmt.Errorf("tree invariants: %w", err)
	}
	return per(float64(allocated), 16*float64(live)), nil
}

// runServe is the untraced run of one serving workload.
func runServe(sp serveSpec, seed uint64, seconds int, quick bool, res *result) error {
	z := sp.sizes(seconds, quick)
	m := res.Metrics

	t0 := time.Now()
	st, err := setUp(sp, seed, sp.keySpace(quick))
	if err != nil {
		return err
	}
	defer st.close()
	m["setup_s"] = time.Since(t0).Seconds()

	if _, err := closedLoop(st.workers, z.warmOps, sp.depth); err != nil {
		return err
	}
	var lag *lagSampler
	if st.cl != nil {
		lag = startLagSampler(st.cl)
	}
	before := st.read()
	closed, err := closedLoop(st.workers, z.closedOps, sp.depth)
	after := st.read()
	if lag != nil {
		m["cluster.rep_lag_max"] = float64(lag.finish())
	}
	if err != nil {
		return err
	}
	layerCounts(m, before, after)
	var slices int
	m["ops_per_s"], slices = closed.opsPerSecond()
	m["loadgen.ops_per_s_whole"] = float64(closed.ops) / closed.wall.Seconds()
	res.Params["closed_ops"] = float64(closed.ops)
	res.Params["closed_wall_s"] = closed.wall.Seconds()
	res.Params["closed_slices"] = float64(slices)
	var quorum int64
	for _, w := range st.workers {
		quorum += w.quorumFails
	}
	m["cluster.quorum_fail_share"] = per(float64(quorum), float64(after.writes-before.writes))

	open, err := openLoop(st.workers, z.perTick, z.ticks, tick, sp.limit)
	if err != nil {
		return err
	}
	lat := open.latency()
	m["lat_p50_us"], m["lat_p95_us"], m["lat_p99_us"] = lat.P50, lat.P95, lat.P99
	res.Params["lat_tail_percentile"] = lat.Supported
	res.Params["lat_samples"] = float64(lat.N)
	res.Params["lat_slices"] = float64(lat.Slices)
	res.Params["open_rate_ops_s"] = float64(sp.openRate)
	res.Params["open_requests"] = float64(open.requests)
	res.Params["generator_behind_max_us"] = float64(open.generatorBehindMax.Microseconds())
	var behind []float64
	for _, b := range open.behindUs {
		behind = append(behind, b...)
	}
	res.Params["generator_behind_p50_us"] = median(behind)
	m["loadgen.late_share"] = per(float64(open.late), float64(open.batches))
	m["loadgen.over_limit_share"] = per(float64(open.overLim), float64(open.requests))

	if err := sweep(st.workers); err != nil {
		return err
	}
	if m["space_amp"], err = st.spaceAmp(); err != nil {
		res.fail(1, err.Error())
	}
	if st.cl != nil {
		err = clusterEpilogue(st, res)
	} else if sp.halfPreload {
		err = crashEpilogue(st, res)
	}
	for _, w := range st.workers {
		res.Attempted += w.attempted
		if w.failed > 0 {
			res.fail(w.failed, w.firstFail)
		}
	}
	return err
}

// crashEpilogue cuts the power with every unflushed line dropped, reopens
// the store from what was flushed, and checks every key against the model:
// each write was acknowledged, so each must have survived.
func crashEpilogue(st *stack, res *result) error {
	for _, c := range st.closers {
		c()
	}
	st.closers = nil
	st.srv.Close()
	sh := st.heaps[0]
	t0 := time.Now()
	if _, err := sh.Crash(nvmsim.DropAllPolicy()); err != nil {
		return err
	}
	kv, err := objstore.OpenKV(sh, kvPrefix)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	res.Metrics["objstore.reopen_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	sweepStore(st.workers, kv, "after crash", res)
	return nil
}

// sweepStore reads every key of every model straight from a store and checks
// presence and value.
func sweepStore(ws []*worker, kv *objstore.KV, what string, res *result) {
	for _, w := range ws {
		s := w.s
		for idx := 0; idx < s.nKeys; idx++ {
			key := keyOf(idx, s.conn, s.conns, s.shards)
			val, ok, err := kv.Get(key)
			res.Attempted++
			if err != nil || ok != s.present[idx] || (ok && val != s.vals[idx]) {
				res.fail(1, fmt.Sprintf("key %d %s: got (%d,%v,%v), model (%d,%v)",
					key, what, val, ok, err, s.vals[idx], s.present[idx]))
			}
		}
	}
}

// clusterEpilogue quiesces replication and checks that every replica equals
// the model, then kills a member, fails over, and checks that the segment
// that moved accepts writes.
func clusterEpilogue(st *stack, res *result) error {
	cl := st.cl
	if err := cl.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	for mi, m := range cl.Members {
		sweepStore(st.workers, m.Node.KV, fmt.Sprintf("on replica %d", mi), res)
	}

	// Kill the last member the way a power cut would: the next persist
	// event on its heap raises the crash signal, the node marks itself
	// dead and its server goes away.
	victim := cl.Members[members-1]
	nv := victim.Sh.Heap().NV
	nv.Arm(nv.Events())
	var victimKey uint64
	for k := uint64(keySpace); ; k++ { // beyond every model's keys
		if owner, _ := cl.Topology().Owner(k); owner == victim.Node.ID {
			victimKey = k
			break
		}
	}
	if pc, err := potserve.Dial(victim.Addr); err == nil {
		_, _ = pc.Put(victimKey, 1) // expected to fail: this write is the kill
		pc.Close()
	}
	nv.Disarm()
	if !victim.Node.Dead() {
		res.fail(1, "armed member did not die")
		return nil
	}
	before := cl.Topology()
	t0 := time.Now()
	if err := cl.Failover(victim.Node.ID); err != nil {
		return fmt.Errorf("failover: %w", err)
	}
	res.Metrics["cluster.failover_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6

	pc, err := cluster.DialCluster(cl.Addrs())
	if err != nil {
		return fmt.Errorf("dial after failover: %w", err)
	}
	defer pc.Close()
	for probes, k := 0, victimKey; probes < 64; k++ {
		if owner, _ := before.Owner(k); owner != victim.Node.ID {
			continue // not on the segment that moved
		}
		probes++
		res.Attempted++
		if _, err := pc.Put(k, k^0xbeef); err != nil {
			res.fail(1, fmt.Sprintf("probe put %d after failover: %v", k, err))
		} else if val, ok, err := pc.Get(k); err != nil || !ok || val != k^0xbeef {
			res.fail(1, fmt.Sprintf("probe get %d after failover: (%d,%v,%v)", k, val, ok, err))
		}
	}
	return nil
}
