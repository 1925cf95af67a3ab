package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"potgo/internal/lincheck"
	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/pds"
	"potgo/internal/pmem"
)

// The MVCC campaign crashes a snapshot-read workload mid-flight while an
// epoch-reclamation goroutine concurrently sweeps superseded versions, and
// proves recovery lands on a state consistent with the acknowledged
// operations — with every post-recovery read served through the reseeded
// snapshot mirror (a dangling version reference would surface as a wrong
// value or a failed walk).
//
// The verification protocol is the journaled-counter protocol carried by
// the KV store. Every Put/Delete, and every op of a Batch, appends to its
// shard's volatile journal inside the transaction and bumps the shard's
// persistent op counter in the same transaction. Journal order is commit
// order, and only the shard's last op or batch can be uncommitted. So the
// recovered counter c per shard satisfies acked <= c <= len(journal), and
// replay(journal[:c]) is exactly the durable contents. The domain poisons
// itself at the crash point, so no operation commits after it: an
// acknowledged operation lies inside the durable prefix.
//
// About one op in eight is a cross-shard KV.Batch of 2–4 keys on distinct
// shards, and every op of one batch carries the batch's value tag
// (mvBatchTag set). A batch commits in one multi-pool transaction, so
// across all shards' durable prefixes its tag counts either none of its
// ops or all of them, and all of them once the batch was acknowledged.
//
// Run 0 stays unarmed: it measures the persistence-event span for crash-
// point sampling AND records a full snapshot-isolation history (writes +
// epoch-pinned reads) checked with lincheck.CheckSI — the live proof that
// the snapshot path is honest. The stale-read mutation mode freezes pins
// at a stale epoch instead of arming crashes; the same checker must then
// report a violation, or the harness is proven unable to catch the bug it
// exists for.

// MVCCSummary reports one MVCC crash campaign.
type MVCCSummary struct {
	Tally
	AckedOps      uint64 `json:"acked_ops"`
	AckedBatches  uint64 `json:"acked_batches"` // acknowledged cross-shard batches
	SnapshotReads uint64 `json:"snapshot_reads"`
	Reclaims      uint64 `json:"reclaim_sweeps"`
}

func (s MVCCSummary) String() string {
	return fmt.Sprintf("%d points (%d fired, %d drained), %d acked ops, %d acked batches, %d snapshot reads, %d reclaim sweeps, %d events spanned",
		s.Points, s.Fired, s.Completed, s.AckedOps, s.AckedBatches, s.SnapshotReads, s.Reclaims, s.Span)
}

// mvBatchTag marks a value as a batch tag: every other value the campaign
// writes (worker<<32|seq puts, the stale-read preload and probe) leaves
// the top bit clear, so a journal entry whose value has it belongs to the
// batch that value names.
const mvBatchTag = uint64(1) << 63

// errTornBatch is the batch-atomicity violation: a batch with some but not
// all of its ops durable.
var errTornBatch = errors.New("batch not atomic")

// mvBatch is one issued batch: its value tag, its op count, and whether
// the store acknowledged it.
type mvBatch struct {
	tag   uint64
	ops   int
	acked bool
}

// mvRun is what one run of the workers leaves for the verifier and the
// summary.
type mvRun struct {
	fired     int       // primary crash signals seen (0 or 1)
	acked     []uint64  // committed journaled ops per KV shard
	batches   []mvBatch // every batch issued, acknowledged or not
	snapReads uint64
	reclaims  uint64
}

// add folds one run's counts into the summary.
func (s *MVCCSummary) add(r mvRun) {
	for _, a := range r.acked {
		s.AckedOps += a
	}
	for _, b := range r.batches {
		if b.acked {
			s.AckedBatches++
		}
	}
	s.SnapshotReads += r.snapReads
	s.Reclaims += r.reclaims
}

type mvWorld struct {
	sh *pmem.Sharded
	kv *objstore.KV
}

func buildMVCCWorld(opt Options) (*mvWorld, error) {
	sh, err := pmem.NewSharded(pmem.NewStore(), opt.Shards, int64(opt.Seed))
	if err != nil {
		return nil, err
	}
	kv, err := objstore.CreateKV(sh, "mv")
	if err != nil {
		return nil, err
	}
	kv.EnableJournal()
	return &mvWorld{sh: sh, kv: kv}, nil
}

// mvHistory collects the SI history of a recorded (unarmed) run.
type mvHistory struct {
	mu     sync.Mutex
	writes []lincheck.SIWrite
	reads  []lincheck.SIRead
	rec    *lincheck.Recorder
}

// begin opens an operation's interval; on a nil history (an armed run
// records nothing) it does nothing.
func (h *mvHistory) begin(worker int, key uint64) (p lincheck.Pending) {
	if h != nil {
		p = h.rec.Begin(worker, key)
	}
	return p
}

// runMVCCWorkers drives puts/deletes/batches/snapshot gets/scans until
// every worker finishes or the domain crashes, with a reclamation
// goroutine sweeping the whole time. hist is non-nil only for unarmed
// recorded runs (a crashed worker's history would contain in-flight writes
// the checker cannot attribute).
func runMVCCWorkers(w *mvWorld, opt Options, hist *mvHistory) (mvRun, error) {
	ackedA := make([]uint64, opt.Shards)
	var primary, reads, reclaims uint64
	errs := make([]error, opt.Workers)
	// Per-worker batch records, appended before each Batch call, so a
	// batch in flight at the crash is still verified.
	batches := make([][]mvBatch, opt.Workers)
	// A batch takes 2–4 consecutive keys, one per shard, so it needs at
	// least two shards and two keys.
	maxBatch := min(4, opt.Shards, opt.KeySpace)

	stopReclaim := make(chan struct{})
	var reclaimWG sync.WaitGroup
	reclaimWG.Add(1)
	go func() {
		defer reclaimWG.Done()
		for {
			select {
			case <-stopReclaim:
				w.sh.ReclaimVersions()
				reclaims++
				return
			default:
				w.sh.ReclaimVersions()
				reclaims++
				runtime.Gosched() // keep the sweep loop from starving workers
			}
		}
	}()

	var wg sync.WaitGroup
	for wi := 0; wi < opt.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				cs, ok := nvmsim.AsCrashSignal(r)
				if !ok {
					panic(r)
				}
				if !cs.Poisoned {
					atomic.AddUint64(&primary, 1)
				}
			}()
			fail := func(what string, err error) bool {
				if err == nil {
					return false
				}
				if !w.sh.Heap().NV.Poisoned() {
					errs[wi] = fmt.Errorf("worker %d %s: %w", wi, what, err)
				}
				return true
			}
			rng := rand.New(rand.NewSource(int64(mix64(opt.Seed ^ uint64(wi+1)))))
			var scanBuf []pds.KV
			var localW []lincheck.SIWrite
			var localR []lincheck.SIRead
			for i := 0; i < opt.Ops; i++ {
				if maxBatch >= 2 && rng.Intn(8) == 0 {
					// Cross-shard batch: n consecutive keys route to n
					// distinct shards (key mod shard count).
					n := 2 + rng.Intn(maxBatch-1)
					base := uint64(rng.Intn(opt.KeySpace-n+1) + 1)
					tag := mvBatchTag | uint64(wi+1)<<32 | uint64(i+1)
					ops := make([]objstore.BatchOp, n)
					for j := range ops {
						ops[j] = objstore.BatchOp{Key: base + uint64(j), Val: tag, Del: rng.Intn(4) == 0}
					}
					batches[wi] = append(batches[wi], mvBatch{tag: tag, ops: n})
					p := hist.begin(wi, base)
					if fail("Batch", w.kv.Batch(ops)) {
						return
					}
					batches[wi][len(batches[wi])-1].acked = true
					for _, op := range ops {
						atomic.AddUint64(&ackedA[op.Key%uint64(opt.Shards)], 1)
					}
					if hist != nil {
						rop := hist.rec.End(p, nil)
						for _, op := range ops {
							localW = append(localW, lincheck.SIWrite{Key: op.Key, Val: tag, Del: op.Del, Call: rop.Call, Ret: rop.Ret})
						}
					}
					continue
				}
				key := uint64(rng.Intn(opt.KeySpace) + 1)
				switch rng.Intn(8) {
				case 0, 1, 2: // put
					val := uint64(wi+1)<<32 | uint64(i+1)
					p := hist.begin(wi, key)
					if _, err := w.kv.Put(key, val); fail("Put", err) {
						return
					}
					atomic.AddUint64(&ackedA[key%uint64(opt.Shards)], 1)
					if hist != nil {
						op := hist.rec.End(p, val)
						localW = append(localW, lincheck.SIWrite{Key: key, Val: val, Call: op.Call, Ret: op.Ret})
					}
				case 3: // delete
					p := hist.begin(wi, key)
					if _, err := w.kv.Delete(key); fail("Delete", err) {
						return
					}
					atomic.AddUint64(&ackedA[key%uint64(opt.Shards)], 1)
					if hist != nil {
						op := hist.rec.End(p, nil)
						localW = append(localW, lincheck.SIWrite{Key: key, Del: true, Call: op.Call, Ret: op.Ret})
					}
				case 4, 5, 6: // snapshot get
					p := hist.begin(wi, key)
					val, found, err := w.kv.Get(key)
					if fail("Get", err) {
						return
					}
					atomic.AddUint64(&reads, 1)
					if hist != nil {
						op := hist.rec.End(p, val)
						localR = append(localR, lincheck.SIRead{
							Worker: wi,
							Obs:    []lincheck.SIObs{{Key: key, Val: val, Found: found}},
							Call:   op.Call, Ret: op.Ret,
						})
					}
				case 7: // snapshot scan
					p := hist.begin(wi, 0)
					var err error
					scanBuf, err = w.kv.ScanAppend(scanBuf, 0, opt.KeySpace+64)
					if fail("Scan", err) {
						return
					}
					atomic.AddUint64(&reads, 1)
					if hist != nil {
						op := hist.rec.End(p, nil)
						got := make(map[uint64]uint64, len(scanBuf))
						for _, kvp := range scanBuf {
							got[kvp.Key] = kvp.Val
						}
						obs := make([]lincheck.SIObs, 0, opt.KeySpace)
						for k := uint64(1); k <= uint64(opt.KeySpace); k++ {
							if v, ok := got[k]; ok {
								obs = append(obs, lincheck.SIObs{Key: k, Val: v, Found: true})
							} else {
								obs = append(obs, lincheck.SIObs{Key: k})
							}
						}
						localR = append(localR, lincheck.SIRead{Worker: wi, Obs: obs, Call: op.Call, Ret: op.Ret})
					}
				}
			}
			if hist != nil {
				hist.mu.Lock()
				hist.writes = append(hist.writes, localW...)
				hist.reads = append(hist.reads, localR...)
				hist.mu.Unlock()
			}
		}(wi)
	}
	wg.Wait()
	close(stopReclaim)
	reclaimWG.Wait()
	for _, e := range errs {
		if e != nil {
			return mvRun{}, e
		}
	}
	run := mvRun{fired: int(primary), acked: ackedA, snapReads: reads, reclaims: reclaims}
	for _, b := range batches {
		run.batches = append(run.batches, b...)
	}
	return run, nil
}

// verifyMVCC power-cycles the world, reattaches (which reseeds the
// snapshot mirror from the recovered bytes), and proves: per shard
// acked <= counter <= journaled with the committed prefix replaying to the
// exact durable contents — read back entirely through the snapshot path,
// where a dangling or missing version reference surfaces as a wrong
// value, a spurious miss, or an inconsistent scan — and every batch
// durable all-or-nothing, all if acknowledged.
func verifyMVCC(w *mvWorld, run mvRun, pol nvmsim.Policy, opt Options) error {
	kv2, model, ops, err := recoverPrefixes(w.sh, w.kv, "mv", run.acked, pol, opt)
	if err != nil {
		return err
	}
	durable := make(map[uint64]int) // ops inside the durable prefixes, per batch tag
	for _, op := range ops {
		if op.Val&mvBatchTag != 0 {
			durable[op.Val]++
		}
	}
	for _, b := range run.batches {
		switch got := durable[b.tag]; {
		case got != 0 && got != b.ops:
			return fmt.Errorf("%w: batch %#x has %d of its %d ops durable", errTornBatch, b.tag, got, b.ops)
		case b.acked && got == 0:
			return fmt.Errorf("acknowledged batch %#x lost: none of its %d ops durable", b.tag, b.ops)
		}
	}
	return checkScan("recovered store", kv2.Scan, model, opt.KeySpace)
}

// mvccCampaign is the MVCC campaign on the point loop: a fresh world per
// point, whose run 0 also records a full snapshot-isolation history.
type mvccCampaign struct {
	opt  Options
	sum  *MVCCSummary
	w    *mvWorld
	last mvRun
}

func (c *mvccCampaign) begin(int) ([]*nvmsim.Domain, int, error) {
	w, err := buildMVCCWorld(c.opt)
	if err != nil {
		return nil, 0, err
	}
	c.w = w
	return []*nvmsim.Domain{w.sh.Heap().NV}, 0, nil
}

func (c *mvccCampaign) run(point int) error {
	var hist *mvHistory
	if point == 0 {
		hist = &mvHistory{rec: lincheck.NewRecorder()}
	}
	run, err := runMVCCWorkers(c.w, c.opt, hist)
	if err != nil {
		return err
	}
	if hist != nil {
		if err := lincheck.CheckSI(hist.writes, hist.reads); err != nil {
			return fmt.Errorf("baseline snapshot reads not SI-consistent: %w", err)
		}
	}
	if run.fired > 1 {
		return fmt.Errorf("%d primary crash signals, want at most 1", run.fired)
	}
	c.last = run
	c.sum.add(run)
	return nil
}

func (c *mvccCampaign) fired() bool { return c.last.fired == 1 }

func (c *mvccCampaign) verify(_ bool, pol nvmsim.Policy) error {
	return verifyMVCC(c.w, c.last, pol, c.opt)
}

func (c *mvccCampaign) end() {}

// runMVCC runs the MVCC crash campaign, or under the StaleRead mutation
// the frozen-pin scenario, which arms no crash.
func runMVCC(opt Options) (sum MVCCSummary, err error) {
	if opt.Mutation == StaleRead {
		err = runMVCCStaleMutation(opt, &sum)
	} else {
		err = runPoints(opt, &mvccCampaign{opt: opt, sum: &sum}, &sum.Tally, true)
	}
	return sum, err
}

// runMVCCStaleMutation preloads the store, freezes snapshot pins at the
// preload epoch, runs the recorded workload, and finishes with a
// deterministic probe (overwrite then read) that is guaranteed stale. The
// SI checker must reject the history; its error is the campaign's.
func runMVCCStaleMutation(opt Options, sum *MVCCSummary) error {
	w, err := buildMVCCWorld(opt)
	if err != nil {
		return err
	}
	hist := &mvHistory{rec: lincheck.NewRecorder()}
	preVal := func(key uint64) uint64 { return uint64(0xF)<<56 | key }
	for key := uint64(1); key <= uint64(opt.KeySpace); key++ {
		p := hist.rec.Begin(0, key)
		if _, err := w.kv.Put(key, preVal(key)); err != nil {
			return fmt.Errorf("preload put %d: %w", key, err)
		}
		op := hist.rec.End(p, nil)
		hist.writes = append(hist.writes, lincheck.SIWrite{Key: key, Val: preVal(key), Call: op.Call, Ret: op.Ret})
	}

	w.sh.MVCC().MutateStaleReads()

	run, err := runMVCCWorkers(w, opt, hist)
	if err != nil {
		return fmt.Errorf("mutated workload: %w", err)
	}
	if run.fired != 0 {
		return fmt.Errorf("mutation mode arms no crashes but %d fired", run.fired)
	}
	sum.add(run)

	// Deterministic probe: a committed overwrite followed by a read that
	// the frozen pin serves from the stale epoch.
	probeVal := uint64(0xE) << 56
	p := hist.rec.Begin(0, uint64(1))
	if _, err := w.kv.Put(1, probeVal); err != nil {
		return fmt.Errorf("probe put: %w", err)
	}
	op := hist.rec.End(p, nil)
	hist.writes = append(hist.writes, lincheck.SIWrite{Key: 1, Val: probeVal, Call: op.Call, Ret: op.Ret})
	p = hist.rec.Begin(0, uint64(1))
	val, found, err := w.kv.Get(1)
	if err != nil {
		return fmt.Errorf("probe get: %w", err)
	}
	op = hist.rec.End(p, val)
	hist.reads = append(hist.reads, lincheck.SIRead{
		Worker: 0,
		Obs:    []lincheck.SIObs{{Key: 1, Val: val, Found: found}},
		Call:   op.Call, Ret: op.Ret,
	})

	if err := lincheck.CheckSI(hist.writes, hist.reads); err != nil {
		opt.count("mutation_detected", 1)
		return fmt.Errorf("stale-read mutation detected (as it must be): %w", err)
	}
	return nil
}
