package main

import (
	"encoding/json"
	"slices"
)

// The metric catalogue. BENCHMARK.json at the repository root and the tables
// in README.md are written from these lists; catalog_test.go holds the three
// together.

var workloadNames = []string{"sim_grid", "serve_read", "serve_write", "cluster_mixed"}

// workloadWhy says, in one line each, why a workload exists.
var workloadWhy = map[string]string{
	"sim_grid":      "the paper's evaluation grid: only the simulator layers (emit, trace, cpu, core, polb, pot, mem, cache, vm) work, the serving tier does nothing; EACH and RANDOM put the POLB under and over its reach",
	"serve_read":    "one node, 95% GET on zipfian keys: wire codec, server loop and the MVCC snapshot read path dominate, the commit path barely runs, so a write-path change must show no change here",
	"serve_write":   "same node, 80% PUT / 20% DELETE, then crash and reopen: undo log, slab allocator, tree splits, group commit, MVCC publish and nvmsim dominate, so a read gain bought with write cost shows",
	"cluster_mixed": "three nodes behind the routing client, then sync, kill and failover: per-peer replication round trips and quorum tracking dominate; serve_write is its single-node baseline",
}

var (
	serving   = []string{"serve_read", "serve_write", "cluster_mixed"}
	simOnly   = []string{"sim_grid"}
	clustered = []string{"cluster_mixed"}
)

type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the baseline's median by which the metric may
	// worsen before -selfcheck (and the driver) calls it a regression.
	Bound float64
	// Exact marks a metric that must not change at all between two runs of
	// one tree: it is simulated or counted, not timed.
	Exact bool
	// Workloads lists where the metric is measured; nil means everywhere.
	Workloads []string
	// Traced marks a time that only the traced run (-trace) produces.
	Traced bool
}

func (d metricDef) on(workload string) bool {
	return d.Workloads == nil || slices.Contains(d.Workloads, workload)
}

// endToEnd are the metrics a user of the system sees. The bounds are the
// widest the benchmark's contract allows: on a quiet host ten runs on ten
// seeds spread by a tenth of them, on a busy one the same code has spread by
// more than all of them (README.md, "Steadiness").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "lat_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	// Reported, not gated: it is read off the whole phase, where one or two
	// host stalls of 10-30 ms decide it, and spreads by 36-105% over ten
	// runs.
	{Name: "lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "fail_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "space_amp", Unit: "x", Better: "lower", Bound: 0.05, Workloads: serving},
	{Name: "sim_mips", Unit: "MIPS", Better: "higher", Bound: 0.25, Workloads: simOnly},
	{Name: "paper_err_pct", Unit: "%", Better: "lower", Exact: true, Workloads: simOnly},
}

// driverEndToEnd is the part of endToEnd that BENCHMARK.json can carry as
// end_to_end: its contract wants every such metric from every workload,
// never 0, steady within a bound of at most a quarter. That rules out the
// three that exist on some workloads only, fail_share, which is 0 on a
// correct tree, and lat_p99_us. Those five are reported to the driver with
// the per-layer metrics instead, and the first four are gated by -selfcheck.
var driverEndToEnd = endToEnd[:5]

func count(name, unit, better string, on []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Workloads: on}
}

func simStat(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Workloads: simOnly, Exact: true}
}

func timed(name, unit string, on []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", Workloads: on, Traced: true}
}

// perLayer are the metrics of single layers, named module.metric.
var perLayer = []metricDef{
	// Counts, read from the layers' public counters around the closed-loop
	// timed phase; the traced run repeats the per-write ones with a single
	// client, where they are exact.
	count("pmem.tx_per_write", "count", "lower", serving),
	count("pmem.undo_bytes_per_write", "B", "lower", serving),
	count("pmem.undo_records_per_write", "count", "lower", serving),
	count("pmem.alloc_bytes_per_write", "B", "lower", serving),
	count("pmem.fences_per_write", "count", "lower", serving),
	count("pmem.groupcommit_batch", "count", "higher", serving),
	count("pmem.mvcc_publishes_per_write", "count", "lower", serving),
	count("pmem.mvcc_versions_unreclaimed", "count", "lower", serving),
	count("nvmsim.events_per_write", "count", "lower", serving),
	count("objstore.snapshot_fallback_share", "share", "lower", serving),
	count("cluster.rep_lag_max", "count", "lower", clustered),
	count("cluster.quorum_fail_share", "share", "lower", clustered),
	count("runtime.allocs_per_op", "count", "lower", serving),
	count("runtime.gc_pause_ms", "ms", "lower", serving),
	count("loadgen.late_share", "share", "lower", serving),
	count("loadgen.over_limit_share", "share", "lower", serving),
	count("loadgen.ops_per_s_whole", "1/s", "higher", serving),

	// Simulated statistics: deterministic for a seed and a run length.
	simStat("cpu.cycles_total", "cycles", "lower"),
	simStat("cpu.insns_total", "count", "lower"),
	simStat("cpu.ipc_inorder", "ipc", "higher"),
	simStat("cpu.ipc_ooo", "ipc", "higher"),
	simStat("core.trans_stall_share", "share", "lower"),
	simStat("polb.miss_rate_each", "share", "lower"),
	simStat("polb.miss_rate_random", "share", "lower"),
	simStat("pot.walks_total", "count", "lower"),
	simStat("mem.l1d_miss_rate", "share", "lower"),
	simStat("mem.stall_share", "share", "lower"),
	simStat("harness.headline.inorder_random_pipelined", "x", "higher"),
	simStat("harness.headline.inorder_random_parallel", "x", "higher"),
	simStat("harness.headline.ooo_random_pipelined", "x", "higher"),
	simStat("harness.headline.ll_each_parallel_miss", "share", "lower"),
	simStat("harness.headline.bt_each_parallel_miss", "share", "lower"),

	// Times, from the traced run.
	timed("potserve.rtt_get_ns", "ns", serving),
	timed("potserve.rtt_put_ns", "ns", serving),
	timed("potserve.codec_ns", "ns", serving),
	timed("potserve.exec_get_ns", "ns", serving),
	timed("potserve.exec_put_ns", "ns", serving),
	timed("potserve.loop_self_ns", "ns", serving),
	timed("objstore.get_ns", "ns", serving),
	timed("objstore.put_ns", "ns", serving),
	timed("objstore.del_ns", "ns", serving),
	timed("objstore.scan32_ns", "ns", serving),
	timed("objstore.batch8_ns", "ns", serving),
	timed("objstore.put_self_ns", "ns", serving),
	{Name: "objstore.reopen_ms", Unit: "ms", Better: "lower", Workloads: []string{"serve_write"}},
	timed("pds.find_snap_ns", "ns", serving),
	timed("pds.find_fast_ns", "ns", serving),
	timed("pds.update_ns", "ns", serving),
	timed("pds.insert_ns", "ns", serving),
	timed("pds.remove_ns", "ns", serving),
	timed("pmem.tx_commit_ns", "ns", serving),
	timed("pmem.alloc_free_ns", "ns", serving),
	timed("pmem.pin_unpin_ns", "ns", serving),
	timed("pmem.reclaim_ns_per_version", "ns", serving),
	timed("nvmsim.clwb_ns", "ns", serving),
	timed("nvmsim.sfence_ns", "ns", serving),
	timed("cluster.route_ns", "ns", clustered),
	timed("cluster.exec_put_ns", "ns", clustered),
	timed("cluster.rep_rtt_us", "us", clustered),
	{Name: "cluster.failover_ms", Unit: "ms", Better: "lower", Workloads: clustered},
	timed("emit.functional_ns_per_insn", "ns", simOnly),
	timed("cpu.inorder_self_ns_per_insn", "ns", simOnly),
	timed("cpu.ooo_self_ns_per_insn", "ns", simOnly),
	timed("trace.lockstep_ns_per_insn", "ns", simOnly),
	timed("core.translate_ns", "ns", simOnly),
	timed("polb.lookup_ns", "ns", simOnly),
	timed("pot.walk_ns", "ns", simOnly),
	timed("cache.access_ns", "ns", simOnly),
	timed("mem.access_ns", "ns", simOnly),
	timed("harness.allocs_per_kinsn", "count", simOnly),
	timed("bench.trace_overhead_pct", "%", serving),
}

// driverPerLayer is BENCHMARK.json's per_layer: every layer metric, then the
// four end-to-end metrics its end_to_end cannot hold.
var driverPerLayer = append(append([]metricDef(nil), perLayer...), endToEnd[5:]...)

// layerNames is the declared list of layers a span may name, outermost
// first within each tier.
var layerNames = []string{
	"potserve.loop", "potserve.codec", "potserve.exec", "cluster.node",
	"objstore.kv", "pds.bplus", "pmem.tx", "nvmsim.domain",
	"harness.run", "emit.functional", "cpu.model",
}

// benchmarkJSON renders BENCHMARK.json from the catalogue (-benchmark-json
// prints it; catalog_test.go checks the committed file against it).
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	file := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloadNames {
		file.Workloads = append(file.Workloads, workload{w, workloadWhy[w]})
	}
	for _, d := range driverEndToEnd {
		bound := d.Bound
		file.EndToEnd = append(file.EndToEnd, metric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range driverPerLayer {
		file.PerLayer = append(file.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		panic(err) // the catalogue is plain data
	}
	return append(data, '\n')
}
