package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"potgo/internal/cluster"
	"potgo/internal/emit"
	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/oid"
	"potgo/internal/pds"
	"potgo/internal/pmem"
	"potgo/internal/potserve"
)

// Sizes of the traced replay. The stream is the start of connection 0's
// stream in the untraced run; the tail after it makes sure each kind of
// request is timed at every depth even on a workload whose mix leaves it
// out, and is not drawn as spans.
const (
	traceRequestsPerSecond = 2500
	traceTailPerOp         = 256
	microIters             = 20000
)

// replay is the request list every pass of the traced run executes, one
// request at a time, against its own fresh copy of the store.
type replay struct {
	sp    serveSpec
	seed  uint64
	keys  int
	quick bool
	n     int // requests that become spans; the tail follows
	reqs  []potserve.Request
	idxs  []int
	ov    int64 // clock overhead per interval, ns
}

func newReplay(sp serveSpec, o options) *replay {
	rp := &replay{sp: sp, seed: o.seed, keys: sp.keySpace(o.quick), quick: o.quick, n: traceRequestsPerSecond * o.seconds}
	if o.quick {
		rp.n = 500
	}
	s := rp.stream()
	for i := 0; i < rp.n; i++ {
		req, idx := s.next()
		rp.reqs, rp.idxs = append(rp.reqs, req), append(rp.idxs, idx)
	}
	for _, op := range []byte{potserve.OpGet, potserve.OpPut, potserve.OpDel} {
		for i := 0; i < traceTailPerOp; i++ {
			idx := s.r.intn(s.nKeys)
			req := potserve.Request{Op: op, Key: keyOf(idx, 0, conns, shards)}
			if op == potserve.OpPut {
				req.Val = s.r.next()
			}
			rp.reqs, rp.idxs = append(rp.reqs, req), append(rp.idxs, idx)
		}
	}
	rp.ov = timerOverhead().Nanoseconds()
	return rp
}

// stream is connection 0's stream with a fresh model.
func (rp *replay) stream() *stream {
	var z *zipf
	if rp.sp.theta > 0 {
		z = newZipf(rp.keys/conns, rp.sp.theta)
	}
	return newStream(rp.seed, 0, conns, shards, rp.keys/conns, rp.sp.mix, z)
}

// since is an interval with the clock's own cost taken off.
func (rp *replay) since(t0 time.Time) int64 {
	return max(0, time.Since(t0).Nanoseconds()-rp.ov)
}

// settle collects the previous pass's store before the next pass builds its
// own, so that a later pass does not run against a larger heap and a busier
// collector than an earlier one: the passes are subtracted from each other.
func settle() { runtime.GC() }

// directStore builds a store in process and loads it with exactly what
// setUp's preload sends over the wire, marking model s to match.
func (rp *replay) directStore(s *stream) (*pmem.Sharded, *objstore.KV, error) {
	settle()
	sh, err := pmem.NewSharded(pmem.NewStore(), shards, int64(rp.seed))
	if err != nil {
		return nil, nil, err
	}
	kv, err := objstore.CreateKV(sh, kvPrefix)
	if err != nil {
		return nil, nil, err
	}
	if rp.sp.clustered {
		kv.EnableJournal() // a cluster member's store journals every write
	}
	err = rp.loadDirect(s, func(key, val uint64) error {
		_, err := kv.Put(key, val)
		return err
	})
	return sh, kv, err
}

func (rp *replay) loadDirect(s *stream, put func(key, val uint64) error) error {
	for c := 0; c < conns; c++ {
		for idx := 0; idx < rp.keys/conns; idx++ {
			if !preloaded(idx, shards, rp.sp.halfPreload) {
				continue
			}
			key := keyOf(idx, c, conns, shards)
			if err := put(key, mix64(key)|1); err != nil {
				return err
			}
			if c == 0 {
				s.present[idx], s.vals[idx] = true, mix64(key)|1
			}
		}
	}
	return nil
}

// verify checks response i against the pass's model.
func (rp *replay) verify(s *stream, i int, resp *potserve.Response, res *result, pass string) {
	res.Attempted++
	if msg := s.check(&rp.reqs[i], rp.idxs[i], resp); msg != "" {
		res.fail(1, fmt.Sprintf("traced %s pass, request %d, key %d: %s", pass, i, rp.reqs[i].Key, msg))
	}
}

// passWire times each request's depth-1 round trip from a client, then
// prices the tracing itself: blocks of GET round trips, alternately timed and
// recorded one by one as the replay just was, and left alone, on the same
// connection to the same store.
func (rp *replay) passWire(res *result) (durs []int64, resps []potserve.Response, err error) {
	settle()
	st, err := setUp(rp.sp, rp.seed, rp.keys)
	if err != nil {
		return nil, nil, err
	}
	defer st.close()
	w := st.workers[0]
	one := make([]potserve.Request, 1)
	var out []potserve.Response
	durs = make([]int64, len(rp.reqs))
	resps = make([]potserve.Response, len(rp.reqs))
	for i := range rp.reqs {
		one[0] = rp.reqs[i]
		t0 := time.Now()
		if out, err = w.p.Do(one, out); err != nil {
			return nil, nil, err
		}
		durs[i] = rp.since(t0)
		resps[i] = out[0]
		resps[i].KVs, resps[i].Entries = nil, nil
	}
	for i := range rp.reqs {
		rp.verify(w.s, i, &resps[i], res, "wire")
	}

	const blocks, blockLen = 40, 250
	var wall [2]time.Duration
	scratch := make([]int64, blockLen)
	for b := 0; b < blocks; b++ {
		traced := b%2 == 1
		start := time.Now()
		for i := 0; i < blockLen; i++ {
			one[0] = potserve.Request{Op: potserve.OpGet, Key: keyOf((b*blockLen+i)%w.s.nKeys, 0, conns, shards)}
			var t0 time.Time
			if traced {
				t0 = time.Now()
			}
			if out, err = w.p.Do(one, out); err != nil {
				return nil, nil, err
			}
			if traced {
				scratch[i] = rp.since(t0)
			}
		}
		wall[b%2] += time.Since(start)
	}
	res.Metrics["bench.trace_overhead_pct"] = 100 * (wall[1].Seconds() - wall[0].Seconds()) / wall[0].Seconds()
	return durs, resps, nil
}

// passCodec times what the wire format costs a request: its frame encoded,
// read back and decoded, and the same for its response, all in memory.
func (rp *replay) passCodec(resps []potserve.Response) ([]int64, error) {
	durs := make([]int64, len(rp.reqs))
	var buf, frame []byte
	var rd bytes.Reader
	var req potserve.Request
	var resp potserve.Response
	for i := range rp.reqs {
		t0 := time.Now()
		var err error
		if buf, err = potserve.AppendRequestFrame(buf[:0], rp.reqs[i]); err != nil {
			return nil, err
		}
		rd.Reset(buf)
		if frame, err = potserve.ReadFrameInto(&rd, frame); err != nil {
			return nil, err
		}
		if err = potserve.DecodeRequestInto(frame, &req); err != nil {
			return nil, err
		}
		if buf, err = potserve.AppendResponseFrame(buf[:0], req.Op, resps[i]); err != nil {
			return nil, err
		}
		rd.Reset(buf)
		if frame, err = potserve.ReadFrameInto(&rd, frame); err != nil {
			return nil, err
		}
		if err = potserve.DecodeResponseInto(req.Op, frame, &resp); err != nil {
			return nil, err
		}
		durs[i] = rp.since(t0)
	}
	return durs, nil
}

// passExec times the server's execute call with no wire around it: the
// single node's KVBackend, or the owning cluster member's Node (which
// replicates to its peers over loopback before it returns).
func (rp *replay) passExec(res *result) ([]int64, error) {
	s := rp.stream()
	var exec func(req *potserve.Request, resp *potserve.Response)
	if rp.sp.clustered {
		settle()
		st, err := setUp(rp.sp, rp.seed, rp.keys)
		if err != nil {
			return nil, err
		}
		defer st.close()
		s = st.workers[0].s
		topo := st.cl.Topology()
		exec = func(req *potserve.Request, resp *potserve.Response) {
			owner, _ := topo.Owner(req.Key)
			st.cl.Members[owner].Node.Exec(req, resp)
		}
	} else {
		_, kv, err := rp.directStore(s)
		if err != nil {
			return nil, err
		}
		be := &potserve.KVBackend{KV: kv}
		exec = be.Exec
	}
	durs := make([]int64, len(rp.reqs))
	var resp potserve.Response
	for i := range rp.reqs {
		t0 := time.Now()
		exec(&rp.reqs[i], &resp)
		durs[i] = rp.since(t0)
		rp.verify(s, i, &resp, res, "exec")
	}
	return durs, nil
}

// persistTimer sits between the heap's emitter and the heap, the one seam on
// the way into the persistence domain that outside code can occupy, and
// counts and times what crosses it. On a concurrent heap that is the fences
// only: write-backs go from Heap.persistNoFence straight to
// Domain.CLWBRange, so their time stays inside the pmem.tx spans and
// clwbNsPerLine prices them on a domain of the bench's own.
type persistTimer struct {
	inner     emit.PersistObserver
	fences    int64
	fenNs     int64
	calls, ns int64 // running totals a pass resets per request or phase
}

func (p *persistTimer) ObserveCLWB(va uint64) { p.inner.ObserveCLWB(va) }

func (p *persistTimer) ObserveSFence() {
	t0 := time.Now()
	p.inner.ObserveSFence()
	d := time.Since(t0).Nanoseconds()
	p.fences, p.fenNs = p.fences+1, p.fenNs+d
	p.calls, p.ns = p.calls+1, p.ns+d
}

func interpose(sh *pmem.Sharded) *persistTimer {
	pt := &persistTimer{inner: sh.Heap()}
	sh.Heap().Emit.SetPersistObserver(pt)
	return pt
}

// take returns the time spent in the persistence domain since the last
// take, with the clock's cost taken off, and how much of the enclosing
// interval was the stopwatch itself.
func (p *persistTimer) take(ov int64) (ns, stopwatch int64) {
	ns, stopwatch = max(0, p.ns-p.calls*ov), p.calls*ov
	p.calls, p.ns = 0, 0
	return ns, stopwatch
}

// kvPass is what the store-level pass measured.
type kvPass struct {
	durs []int64
	sh   *pmem.Sharded
	kv   *objstore.KV
}

// passKV times KV.Get/Put/Delete directly. A persistTimer rides along for
// the exact per-write counts (one client, so they repeat run to run) and the
// unit cost of a write-back and a fence.
func (rp *replay) passKV(res *result) (*kvPass, error) {
	s := rp.stream()
	sh, kv, err := rp.directStore(s)
	if err != nil {
		return nil, err
	}
	pt := interpose(sh)
	h := sh.Heap()
	before, eventsBefore := h.StatsSnapshot(), h.NV.Events()
	var writes int64
	durs := make([]int64, len(rp.reqs))
	for i := range rp.reqs {
		req := &rp.reqs[i]
		var resp potserve.Response
		t0 := time.Now()
		switch req.Op {
		case potserve.OpGet:
			val, ok, err := kv.Get(req.Key)
			resp = kvResponse(ok, err)
			resp.Val = val
		case potserve.OpPut:
			created, err := kv.Put(req.Key, req.Val)
			resp = kvResponse(true, err)
			resp.Created = created
		case potserve.OpDel:
			existed, err := kv.Delete(req.Key)
			resp = kvResponse(existed, err)
		}
		d := rp.since(t0)
		_, stopwatch := pt.take(rp.ov)
		durs[i] = max(0, d-stopwatch)
		if req.Op != potserve.OpGet && i < rp.n {
			writes++
		}
		if i == rp.n-1 {
			// Counts cover the stream proper, not the tail.
			after := h.StatsSnapshot()
			w := float64(writes)
			m := res.Metrics
			m["pmem.tx_per_write"] = per(float64(after.TxCommits-before.TxCommits), w)
			m["pmem.undo_bytes_per_write"] = per(float64(after.UndoBytes-before.UndoBytes), w)
			m["pmem.undo_records_per_write"] = per(float64(after.UndoRecords-before.UndoRecords), w)
			m["pmem.alloc_bytes_per_write"] = per(float64(after.AllocBytes-before.AllocBytes), w)
			m["pmem.mvcc_publishes_per_write"] = per(float64(after.MVCCPublishes-before.MVCCPublishes), w)
			m["nvmsim.events_per_write"] = per(float64(h.NV.Events()-eventsBefore), w)
			m["pmem.fences_per_write"] = per(float64(pt.fences), w)
		}
		rp.verify(s, i, &resp, res, "store")
	}
	res.Metrics["nvmsim.sfence_ns"] = per(float64(pt.fenNs-pt.fences*rp.ov), float64(pt.fences))
	return &kvPass{durs: durs, sh: sh, kv: kv}, nil
}

func kvResponse(found bool, err error) potserve.Response {
	switch {
	case err != nil:
		return potserve.Response{Status: potserve.StatusErr, Msg: err.Error()}
	case !found:
		return potserve.Response{Status: potserve.StatusNotFound}
	}
	return potserve.Response{Status: potserve.StatusOK}
}

// spanCtx is the bench's own pds.Ctx: the seam between a structure and the
// heap under it. It does what objstore's does, routing allocation, free and
// undo snapshots into the open transaction, and times each crossing.
type spanCtx struct {
	h       *pmem.Heap
	pool    *pmem.Pool
	tx      *pmem.Tx
	touched map[oid.OID]bool
	calls   int64
	ns      int64
}

func (c *spanCtx) bind(tx *pmem.Tx) {
	c.tx = tx
	clear(c.touched)
}

func (c *spanCtx) Heap() *pmem.Heap { return c.h }

func (c *spanCtx) Alloc(_ uint64, size uint32) (oid.OID, error) {
	t0 := time.Now()
	o, err := c.tx.Alloc(c.pool, size)
	c.calls, c.ns = c.calls+1, c.ns+time.Since(t0).Nanoseconds()
	return o, err
}

func (c *spanCtx) Free(o oid.OID) error {
	t0 := time.Now()
	err := c.tx.Free(o)
	c.calls, c.ns = c.calls+1, c.ns+time.Since(t0).Nanoseconds()
	return err
}

func (c *spanCtx) Touch(o oid.OID, size uint32) error {
	if c.tx == nil || c.touched[o] {
		return nil
	}
	t0 := time.Now()
	err := c.tx.AddRange(o, size)
	c.calls, c.ns = c.calls+1, c.ns+time.Since(t0).Nanoseconds()
	c.touched[o] = true
	return err
}

// trees is the store rebuilt from its parts in the bench: one private pool
// and B+-tree per shard, versioned for snapshot reads, with a spanCtx under
// each. It is what objstore.CreateKV builds, minus objstore.
type trees struct {
	sh     *pmem.Sharded
	pt     *persistTimer
	shards []treeShard
}

type treeShard struct {
	pool *pmem.Pool
	tree *pds.BPlus
	ctx  *spanCtx
}

func newTrees(seed uint64) (*trees, error) {
	sh, err := pmem.NewSharded(pmem.NewStore(), shards, int64(seed))
	if err != nil {
		return nil, err
	}
	tr := &trees{sh: sh}
	h := sh.Heap()
	for i := 0; i < shards; i++ {
		p, err := sh.CreateSized(fmt.Sprintf("%s-%d", kvPrefix, i), 4<<20, 256<<10)
		if err != nil {
			return nil, err
		}
		root, err := h.Root(p, 16)
		if err != nil {
			return nil, err
		}
		tree := pds.NewBPlus(pds.NewCell(h, root.FieldAt(0)))
		if err := tree.Prime(); err != nil {
			return nil, err
		}
		tr.shards = append(tr.shards, treeShard{pool: p, tree: tree,
			ctx: &spanCtx{h: h, pool: p, touched: map[oid.OID]bool{}}})
	}
	for _, s := range tr.shards {
		sh.EnableMVCC(s.pool)
	}
	for _, s := range tr.shards {
		if err := sh.MVCC().Seed(h, s.pool, s.tree.AnchorOID(), 8); err != nil {
			return nil, err
		}
	}
	tr.pt = interpose(sh)
	return tr, nil
}

// phases is one write's time at the structure level, split where the bench
// can see a boundary. Each figure has its stopwatches taken off.
type phases struct {
	begin, tree, treePmem, treeNV, commit, commitNV int64
}

// write runs one put or delete the way objstore.KV does: open a transaction
// on the shard's pool, run the tree operation through the ctx, commit.
func (tr *trees) write(rp *replay, key, val uint64, del bool) (found bool, ph phases, err error) {
	s := &tr.shards[key%shards]
	t0 := time.Now()
	tx, err := tr.sh.Heap().Begin(s.pool)
	if err != nil {
		return false, ph, err
	}
	ph.begin = rp.since(t0)
	s.ctx.bind(tx)
	s.ctx.calls, s.ctx.ns = 0, 0
	tr.pt.take(rp.ov)

	t1 := time.Now()
	if del {
		found, err = s.tree.Remove(s.ctx, key)
	} else {
		found, err = s.tree.UpdateFast(s.ctx, key, val)
		if err == nil && !found {
			err = s.tree.Insert(s.ctx, key, val)
		}
	}
	tree := rp.since(t1)
	if err != nil {
		_ = tx.Abort()
		return false, ph, err
	}
	nv, nvWatch := tr.pt.take(rp.ov)
	ctxWatch := s.ctx.calls * rp.ov
	ph.treeNV = nv
	ph.treePmem = max(0, s.ctx.ns-ctxWatch-nvWatch)
	ph.tree = max(0, tree-ctxWatch-nvWatch)

	t2 := time.Now()
	err = tx.Commit()
	commit := rp.since(t2)
	nv, nvWatch = tr.pt.take(rp.ov)
	ph.commitNV, ph.commit = nv, max(0, commit-nvWatch)
	return found, ph, err
}

// treePass is what the structure-level pass measured, per request.
type treePass struct {
	ph          []phases
	pin, search []int64 // reads: pin+unpin, and the snapshot search between
}

// passTrees replays the stream against the bench's own trees.
func (rp *replay) passTrees(res *result) (*treePass, *trees, error) {
	settle()
	tr, err := newTrees(rp.seed)
	if err != nil {
		return nil, nil, err
	}
	s := rp.stream()
	err = rp.loadDirect(s, func(key, val uint64) error {
		_, _, err := tr.write(rp, key, val, false)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	tp := &treePass{ph: make([]phases, len(rp.reqs)), pin: make([]int64, len(rp.reqs)), search: make([]int64, len(rp.reqs))}
	for i := range rp.reqs {
		req := &rp.reqs[i]
		var resp potserve.Response
		if req.Op == potserve.OpGet {
			t0 := time.Now()
			pin := tr.sh.Pin()
			t1 := time.Now()
			val, found, ok := tr.shards[req.Key%shards].tree.FindSnap(pin, req.Key)
			t2 := time.Now()
			tr.sh.Unpin(pin)
			t3 := time.Now()
			tp.pin[i] = max(0, t1.Sub(t0).Nanoseconds()+t3.Sub(t2).Nanoseconds()-2*rp.ov)
			tp.search[i] = max(0, t2.Sub(t1).Nanoseconds()-rp.ov)
			if !ok {
				res.fail(1, fmt.Sprintf("traced tree pass: snapshot search of key %d missed the mirror", req.Key))
			}
			resp = kvResponse(found, nil)
			resp.Val = val
		} else {
			found, ph, err := tr.write(rp, req.Key, req.Val, req.Op == potserve.OpDel)
			tp.ph[i] = ph
			resp = kvResponse(found || req.Op == potserve.OpPut, err)
			resp.Created = !found
		}
		rp.verify(s, i, &resp, res, "tree")
	}
	return tp, tr, nil
}

// mean times n calls of fn as one interval, so the clock costs nothing per
// call, and returns nanoseconds per call.
func mean(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func (rp *replay) microIters() int {
	if rp.quick {
		return 500
	}
	return microIters
}

// flatMemory is the two byte images a persistence domain sits between, for
// one pool of the bench's own.
type flatMemory struct{ cache, durable []byte }

func (m *flatMemory) ReadCacheLine(_, off uint32, dst *[nvmsim.LineBytes]byte) bool {
	copy(dst[:], m.cache[off:])
	return true
}

func (m *flatMemory) WriteDurableWords(_, off uint32, src *[nvmsim.LineBytes]byte, mask byte) {
	for w := uint32(0); w < 8; w++ {
		if mask&(1<<w) != 0 {
			copy(m.durable[off+8*w:off+8*w+8], src[8*w:])
		}
	}
}

func (m *flatMemory) ReadDurableLine(_, off uint32, dst *[nvmsim.LineBytes]byte) bool {
	copy(dst[:], m.durable[off:])
	return true
}

func (m *flatMemory) WriteCacheLine(_, off uint32, src *[nvmsim.LineBytes]byte) bool {
	copy(m.cache[off:], src[:])
	return true
}

// clwbNsPerLine times Domain.CLWB on dirty lines, a fence draining every
// eight of them as a small commit would.
func clwbNsPerLine(n int) float64 {
	const size = 1 << 20
	mem := &flatMemory{cache: make([]byte, size), durable: make([]byte, size)}
	d := nvmsim.NewDomain()
	d.AddPool(1, size)
	var total time.Duration
	for i := 0; i < n; i += 8 {
		for j := 0; j < 8; j++ {
			d.Store(1, uint32((i+j)*nvmsim.LineBytes%size), 8)
		}
		start := time.Now()
		for j := 0; j < 8; j++ {
			d.CLWB(1, uint32((i+j)*nvmsim.LineBytes%size), mem)
		}
		total += time.Since(start)
		d.SFence(mem)
	}
	return float64(total.Nanoseconds()) / float64(n)
}

// micro times the entry points the replay does not isolate, on the stores
// the passes leave behind. It runs after every response has been verified,
// so it is free to write.
func (rp *replay) micro(res *result, kp *kvPass, tr *trees) error {
	m := res.Metrics
	r := newRng(rp.seed, 99)
	iters := rp.microIters()
	m["nvmsim.clwb_ns"] = clwbNsPerLine(iters)
	anyKey := func() uint64 { return keyOf(r.intn(rp.keys/conns), r.intn(conns), conns, shards) }
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	var kvs []pds.KV
	m["objstore.scan32_ns"] = mean(iters/10, func(int) {
		var err error
		kvs, err = kp.kv.ScanAppend(kvs, anyKey(), 32)
		note(err)
	})
	batch := make([]objstore.BatchOp, 8)
	m["objstore.batch8_ns"] = mean(iters/10, func(int) {
		for j := range batch {
			batch[j] = objstore.BatchOp{Key: anyKey(), Val: r.next()}
		}
		note(kp.kv.Batch(batch))
	})

	shard := func(key uint64) *treeShard { return &tr.shards[key%shards] }
	m["pmem.pin_unpin_ns"] = mean(iters, func(int) { tr.sh.Unpin(tr.sh.Pin()) })
	pin := tr.sh.Pin()
	m["pds.find_snap_ns"] = mean(iters, func(int) {
		k := anyKey()
		shard(k).tree.FindSnap(pin, k)
	})
	tr.sh.Unpin(pin)
	m["pds.find_fast_ns"] = mean(iters, func(int) {
		k := anyKey()
		_, _, err := shard(k).tree.FindFast(shard(k).ctx, k)
		note(err)
	})

	// The three mutations, each inside a transaction as the store runs
	// them; only the structure's own call is on the clock.
	h := tr.sh.Heap()
	mutate := func(key uint64, op func(s *treeShard) error) int64 {
		s := shard(key)
		tx, err := h.Begin(s.pool)
		if err != nil {
			note(err)
			return 0
		}
		s.ctx.bind(tx)
		s.ctx.calls = 0
		tr.pt.take(rp.ov)
		t0 := time.Now()
		note(op(s))
		d := rp.since(t0)
		_, nvWatch := tr.pt.take(rp.ov)
		note(tx.Commit())
		return max(0, d-s.ctx.calls*rp.ov-nvWatch)
	}
	fresh := func(i int) uint64 { return uint64(rp.keys + i) } // beyond every model's keys
	var upd, ins, rem int64
	n := iters / 4
	for i := 0; i < n; i++ {
		k := anyKey()
		upd += mutate(k, func(s *treeShard) error { _, err := s.tree.UpdateFast(s.ctx, k, r.next()); return err })
	}
	for i := 0; i < n; i++ {
		k := fresh(i)
		ins += mutate(k, func(s *treeShard) error { return s.tree.Insert(s.ctx, k, 1) })
	}
	for i := 0; i < n; i++ {
		k := fresh(i)
		rem += mutate(k, func(s *treeShard) error { _, err := s.tree.Remove(s.ctx, k); return err })
	}
	m["pds.update_ns"] = float64(upd) / float64(n)
	m["pds.insert_ns"] = float64(ins) / float64(n)
	m["pds.remove_ns"] = float64(rem) / float64(n)

	var allocFree int64
	for i := 0; i < n; i++ {
		p := tr.shards[i%shards].pool
		tx, err := h.Begin(p)
		if err != nil {
			return err
		}
		t0 := time.Now()
		o, err := tx.Alloc(p, pds.BPNodeSize)
		if err == nil {
			err = tx.Free(o)
		}
		allocFree += rp.since(t0)
		note(err)
		note(tx.Commit())
	}
	m["pmem.alloc_free_ns"] = float64(allocFree) / float64(n)

	t0 := time.Now()
	reclaimed := tr.sh.ReclaimVersions()
	m["pmem.reclaim_ns_per_version"] = per(float64(time.Since(t0).Nanoseconds()), float64(reclaimed))
	return firstErr
}

// clusterMicro times what only a cluster has: the ring look-up that routes a
// key, and one replication round trip, sent as a member would send it: a
// one-entry REP frame for origin 0's log, to member 1 of a fresh cluster.
func (rp *replay) clusterMicro(res *result) error {
	cl, err := cluster.NewLocal(members, shards, int64(rp.seed), nil)
	if err != nil {
		return err
	}
	defer cl.Close()
	topo := cl.Topology()
	iters := rp.microIters()
	res.Metrics["cluster.route_ns"] = mean(iters, func(i int) { topo.Owner(uint64(i)) })
	pc, err := potserve.Dial(cl.Members[1].Addr)
	if err != nil {
		return err
	}
	defer pc.Close()
	entry := make([]potserve.RepEntry, 1)
	var repErr error
	res.Metrics["cluster.rep_rtt_us"] = mean(iters/10, func(i int) {
		entry[0] = potserve.RepEntry{Seq: uint64(i + 1), Epoch: topo.Epoch(), Key: uint64(i), Val: 1}
		if w, err := pc.Rep(0, topo.Epoch(), entry); err != nil || w != uint64(i+1) {
			repErr = fmt.Errorf("rep %d: watermark %d, %v", i+1, w, err)
		}
	}) / 1e3
	return repErr
}

// traceServe is the traced run of one serving workload.
func traceServe(sp serveSpec, o options, res *result) error {
	rp := newReplay(sp, o)
	m := res.Metrics

	rtt, resps, err := rp.passWire(res)
	if err != nil {
		return err
	}
	codec, err := rp.passCodec(resps)
	if err != nil {
		return err
	}
	exec, err := rp.passExec(res)
	if err != nil {
		return err
	}
	kp, err := rp.passKV(res)
	if err != nil {
		return err
	}
	tp, tr, err := rp.passTrees(res)
	if err != nil {
		return err
	}
	if err := rp.micro(res, kp, tr); err != nil {
		return err
	}
	if sp.clustered {
		if err := rp.clusterMicro(res); err != nil {
			return err
		}
	}

	// Nest the passes into spans, request by request.
	execLayer := "potserve.exec"
	if sp.clustered {
		execLayer = "cluster.node"
	}
	rec := &recorder{}
	for i := 0; i < rp.n; i++ {
		root := rec.root("potserve.loop", opName(rp.reqs[i].Op), i, rtt[i])
		rec.child(root, "potserve.codec", codec[i])
		ex := rec.child(root, execLayer, exec[i])
		kv := rec.child(ex, "objstore.kv", kp.durs[i])
		if rp.reqs[i].Op == potserve.OpGet {
			rec.child(kv, "pmem.tx", tp.pin[i])
			rec.child(kv, "pds.bplus", tp.search[i])
			continue
		}
		ph := tp.ph[i]
		rec.child(kv, "pmem.tx", ph.begin)
		tree := rec.child(kv, "pds.bplus", ph.tree)
		rec.child(rec.child(tree, "pmem.tx", ph.treePmem), "nvmsim.domain", ph.treeNV)
		rec.child(rec.child(kv, "pmem.tx", ph.commit), "nvmsim.domain", ph.commitNV)
	}

	// Means by kind of request, over the stream where it has that kind and
	// over the tail where it has not.
	byOp := func(durs []int64, op byte) float64 {
		sum := func(from, to int) (float64, float64) {
			var total, n float64
			for i := from; i < to; i++ {
				if rp.reqs[i].Op == op {
					total, n = total+float64(durs[i]), n+1
				}
			}
			return total, n
		}
		total, n := sum(0, rp.n)
		if n < traceTailPerOp {
			total, n = sum(rp.n, len(rp.reqs))
		}
		return per(total, n)
	}
	commit := make([]int64, len(rp.reqs))
	loopSelf := make([]int64, len(rp.reqs))
	putSelf := make([]int64, len(rp.reqs))
	for i := range rp.reqs {
		ph := tp.ph[i]
		commit[i] = ph.begin + ph.commit
		loopSelf[i] = max(0, rtt[i]-codec[i]-exec[i])
		putSelf[i] = max(0, kp.durs[i]-ph.begin-ph.tree-ph.commit)
	}
	m["potserve.rtt_get_ns"] = byOp(rtt, potserve.OpGet)
	m["potserve.rtt_put_ns"] = byOp(rtt, potserve.OpPut)
	m["potserve.exec_get_ns"] = byOp(exec, potserve.OpGet)
	m["potserve.exec_put_ns"] = byOp(exec, potserve.OpPut)
	m["objstore.get_ns"] = byOp(kp.durs, potserve.OpGet)
	m["objstore.put_ns"] = byOp(kp.durs, potserve.OpPut)
	m["objstore.del_ns"] = byOp(kp.durs, potserve.OpDel)
	m["objstore.put_self_ns"] = byOp(putSelf, potserve.OpPut)
	m["pmem.tx_commit_ns"] = byOp(commit, potserve.OpPut)
	var codecSum, loopSum float64
	for i := 0; i < rp.n; i++ {
		codecSum, loopSum = codecSum+float64(codec[i]), loopSum+float64(loopSelf[i])
	}
	m["potserve.codec_ns"] = codecSum / float64(rp.n)
	m["potserve.loop_self_ns"] = loopSum / float64(rp.n)
	if sp.clustered {
		m["cluster.exec_put_ns"] = m["potserve.exec_put_ns"]
	}
	res.Params["trace_requests"] = float64(rp.n)
	res.Params["trace_tail_requests"] = float64(len(rp.reqs) - rp.n)
	return finishTrace(o, res, rec, rp.n, float64(rp.ov))
}

// opName is the kind of request a span belongs to.
func opName(op byte) string {
	switch op {
	case potserve.OpGet:
		return "get"
	case potserve.OpPut:
		return "put"
	}
	return "del"
}
