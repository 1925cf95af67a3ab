package potserve

import (
	"net"
	"slices"
	"testing"

	"potgo/internal/objstore"
	"potgo/internal/pmem"
)

// newPipeServer wires a Server connection handler and a Client together
// over an in-memory net.Pipe, taking the network stack (and its
// nondeterministic runtime allocations) out of the measurement: what is
// left is exactly the wire codec, the server loop, the KV store and the
// persistent heap underneath. wrap, when non-nil, puts another Backend in
// front of the KVBackend.
func newPipeServer(t *testing.T, wrap func(*KVBackend) Backend) (*Client, *objstore.KV) {
	t.Helper()
	sh, err := pmem.NewSharded(pmem.NewStore(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := objstore.CreateKV(sh, "allocs")
	if err != nil {
		t.Fatal(err)
	}
	var backend Backend = &KVBackend{KV: kv}
	if wrap != nil {
		backend = wrap(&KVBackend{KV: kv})
	}
	s := &Server{backend: backend, conns: make(map[net.Conn]struct{})}
	cs, ss := net.Pipe()
	s.conns[ss] = struct{}{}
	s.wg.Add(1)
	go s.handle(ss)
	t.Cleanup(func() {
		cs.Close()
		ss.Close()
		s.wg.Wait()
	})
	return NewClient(cs), kv
}

// burstProbe passes each burst on to the KVBackend and records the longest
// one the server handed over.
type burstProbe struct {
	*KVBackend
	maxBurst int
}

func (b *burstProbe) ExecBurst(reqs []Request, resps []Response) {
	if len(reqs) > b.maxBurst {
		b.maxBurst = len(reqs)
	}
	b.KVBackend.ExecBurst(reqs, resps)
}

// runServeAllocs is the zero-copy regression gate: once the per-connection
// scratch buffers are warm, a steady-state get / put-overwrite / scan / tx
// / ping / pipelined burst performs zero heap allocations across the whole stack (client
// encode, server decode, KV, B+-tree walk or snapshot traversal, undo log,
// write-back model, response encode). Inserts and deletes restructure the
// tree and are allowed to allocate; a bounded keyspace makes every gated
// put an overwrite. only, when non-empty, names the cases to gate.
func runServeAllocs(t *testing.T, c *Client, only ...string) {
	const keys = 64
	for k := uint64(0); k < keys; k++ {
		if _, err := c.Put(k, k*3); err != nil {
			t.Fatalf("warmup put %d: %v", k, err)
		}
	}

	txOps := []objstore.BatchOp{{Key: 3, Val: 30}, {Key: 7, Val: 70}, {Key: 11, Val: 110}}
	scanReqs := []Request{{Op: OpScan, From: 0, Max: 16}}
	var scanResps []Response
	// One conn.Write of eight frames: over net.Pipe the server's first read
	// buffers them all, so the backend gets them as one burst.
	burstReqs := []Request{
		{Op: OpPut, Key: 1, Val: 10}, {Op: OpGet, Key: 1}, {Op: OpPut, Key: 2, Val: 20}, {Op: OpGet, Key: keys + 1000},
		{Op: OpPing}, {Op: OpPut, Key: 1, Val: 11}, {Op: OpScan, From: 0, Max: 4}, {Op: OpGet, Key: 2},
	}
	var burstResps []Response
	var opErr error
	// put-insert adds a key the store does not hold and delete takes the
	// same keys out again, newest first, so both restructure the tree:
	// leaves split and merge, nodes are allocated and freed. One such cycle
	// up front is the warm-up: it leaves the slab spans carved and the
	// version mirror's entries on its free lists, as any store that has
	// shrunk once has them.
	const runs = 100
	const churn = 3 + 1 + runs // each case: our warm-up, AllocsPerRun's own, the runs
	fresh := uint64(keys + 2000)
	for k := fresh; k < fresh+churn; k++ {
		if _, err := c.Put(k, 1); err != nil {
			t.Fatalf("churn put %d: %v", k, err)
		}
	}
	for k := fresh + churn; k > fresh; k-- {
		if _, err := c.Do(Request{Op: OpDel, Key: k - 1}); err != nil {
			t.Fatalf("churn delete %d: %v", k-1, err)
		}
	}

	cases := []struct {
		name string
		fn   func()
	}{
		{"ping", func() { _, opErr = c.Do(Request{Op: OpPing}) }},
		{"get-hit", func() { _, opErr = c.Do(Request{Op: OpGet, Key: 5}) }},
		{"get-miss", func() { _, opErr = c.Do(Request{Op: OpGet, Key: keys + 1000}) }},
		{"put-overwrite", func() { _, opErr = c.Put(9, 999) }},
		{"put-insert", func() { _, opErr = c.Put(fresh, 1); fresh++ }},
		{"delete", func() { fresh--; _, opErr = c.Do(Request{Op: OpDel, Key: fresh}) }},
		{"tx-overwrite", func() { _, opErr = c.Do(Request{Op: OpTx, Ops: txOps}) }},
		{"scan", func() { scanResps, opErr = c.PipelineAppend(scanReqs, scanResps) }},
		{"burst", func() { burstResps, opErr = c.PipelineAppend(burstReqs, burstResps) }},
	}
	for _, tc := range cases {
		if len(only) > 0 && !slices.Contains(only, tc.name) {
			continue
		}
		// Warm every scratch buffer this op touches (frame, ops, KVs,
		// response accumulator, undo-log arena) before measuring.
		for i := 0; i < 3; i++ {
			tc.fn()
			if opErr != nil {
				t.Fatalf("%s warmup: %v", tc.name, opErr)
			}
		}
		if avg := testing.AllocsPerRun(runs, tc.fn); avg != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", tc.name, avg)
		}
		if opErr != nil {
			t.Fatalf("%s: %v", tc.name, opErr)
		}
	}
}

// TestServeAllocs gates the default (snapshot-read) server through its one
// connection loop: gathering, ExecBurst and the in-order encode, for lone
// requests and an eight-request burst alike. Gets and scans ride the
// epoch-pinned MVCC mirror — Pin, version-chain traversal, Unpin — and must
// still be allocation-free. The MVCC stats prove the mirror was actually
// live, not silently disabled.
func TestServeAllocs(t *testing.T) {
	c, kv := newPipeServer(t, nil)
	runServeAllocs(t, c)
	if kv.Sharded().MVCC() == nil {
		t.Fatal("snapshot reads not enabled: the gate measured the latched path")
	}
	if pub, _ := kv.Sharded().MVCC().Stats(); pub == 0 {
		t.Fatal("no versions published: the workload never reached the snapshot mirror")
	}
	if n := kv.SnapshotFallbacks(); n != 0 {
		t.Fatalf("%d reads fell back to the latched path: the gate did not measure snapshot reads alone", n)
	}
}

// TestServeAllocsBurst checks that the gate's burst case really reaches the
// backend as one eight-request burst: gathering, ExecBurst and the in-order
// encode of a burst must hold the same zero-allocation bar as a lone request.
func TestServeAllocsBurst(t *testing.T) {
	probe := &burstProbe{}
	c, _ := newPipeServer(t, func(b *KVBackend) Backend {
		probe.KVBackend = b
		return probe
	})
	runServeAllocs(t, c)
	if probe.maxBurst != 8 {
		t.Fatalf("longest burst %d, want 8: the gate did not measure the burst loop", probe.maxBurst)
	}
}

// TestServeAllocsLatched gates the latched walk where production still
// reaches it: a default store whose pin registry is saturated, so every
// Get and Scan falls back from the snapshot path. Reads must hold the same
// zero-allocation bar there. Writes are left to TestServeAllocs: while the
// stale pins block version recycling every overwrite allocates its new
// version.
func TestServeAllocsLatched(t *testing.T) {
	c, kv := newPipeServer(t, nil)
	sh := kv.Sharded()
	for p := sh.Pin(); p != nil; p = sh.Pin() {
		defer sh.Unpin(p)
	}
	runServeAllocs(t, c, "ping", "get-hit", "get-miss", "scan")
	if kv.SnapshotFallbacks() == 0 {
		t.Fatal("no read fell back: the gate measured the snapshot path, not the latched walk")
	}
}
