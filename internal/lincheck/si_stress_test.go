package lincheck_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"potgo/internal/lincheck"
	"potgo/internal/objstore"
	"potgo/internal/pds"
	"potgo/internal/pmem"
	"potgo/internal/randtest"
)

// The MVCC snapshot-read stress: 8 workers fire put/delete/batch/get/scan
// at the snapshot-enabled KV store. Writes (latched, linearizable) are
// proved so with the Wing & Gong checker; reads ride the epoch-pinned
// snapshot path and are proved snapshot-consistent with CheckSI. Every
// put's value encodes worker<<32|seq, so each value identifies its write —
// the SI checker's identification requirement. A cross-shard Batch of 2–4
// keys is recorded as one write per key, every one sharing the batch's
// value and its call/return interval; concurrent batches take overlapping
// shard sets, so a lock-order bug in the multi-shard path shows up here as
// a deadlock or a non-linearizable history.

const (
	siKVPut = byte(iota + 1)
	siKVDel
	siKVGet
	siKVScan
	siKVBatch
)

const siScanMax = 128

// siKVIn is comparable (Wing & Gong compares inputs with ==); only write
// ops ever reach that checker. Batched marks a put or delete issued inside
// a Batch, which reports no per-op created/existed outcome.
type siKVIn struct {
	Op      byte
	Key     uint64
	Val     uint64
	Batched bool
}

type siKVOut struct {
	Changed bool // put: created; delete: existed
	Val     uint64
	Found   bool
}

// siKVWriteModel is the per-key sequential spec of the write ops: state is
// the current value (0 = absent; all written values are nonzero).
func siKVWriteModel() lincheck.Model {
	return lincheck.Model{
		Init: func() any { return uint64(0) },
		Step: func(s, in any) (any, any) {
			cur := s.(uint64)
			i := in.(siKVIn)
			switch i.Op {
			case siKVPut:
				return i.Val, siKVOut{Changed: cur == 0 && !i.Batched}
			case siKVDel:
				return uint64(0), siKVOut{Changed: cur != 0 && !i.Batched}
			}
			panic(fmt.Sprintf("unexpected op %d in write history", i.Op))
		},
		Repr:      func(s any) string { return fmt.Sprint(s.(uint64)) },
		Partition: func(op lincheck.Op) any { return op.Input.(siKVIn).Key },
	}
}

func TestKVSnapshotIsolation(t *testing.T) {
	const workers = 8
	const keySpace = 24
	perWorker := 1500 // 12k ops total against the one structure
	if testing.Short() {
		perWorker = 150
	}

	sh, err := pmem.NewSharded(pmem.NewStore(), 8, 1)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	kv, err := objstore.CreateKV(sh, "si")
	if err != nil {
		t.Fatalf("CreateKV: %v", err)
	}

	// Worker streams derive from the one master seed, so a -seed override
	// replays the entire run.
	rng := randtest.New(t, 909)
	seeds := make([]int64, workers)
	for w := range seeds {
		seeds[w] = rng.Int63()
	}

	rec := lincheck.NewRecorder()
	errs := make([]error, workers)
	var mu sync.Mutex
	var siReads []lincheck.SIRead
	var batchOps []lincheck.Op // one per batched key, sharing the batch's interval

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seeds[w]))
			var scanBuf []pds.KV
			var localReads []lincheck.SIRead
			var localBatchOps []lincheck.Op
			for i := 0; i < perWorker; i++ {
				key := uint64(r.Intn(keySpace) + 1)
				switch r.Intn(9) {
				case 0, 1, 2: // put
					val := uint64(w+1)<<32 | uint64(i+1)
					in := siKVIn{Op: siKVPut, Key: key, Val: val}
					p := rec.Begin(w, in)
					created, err := kv.Put(key, val)
					if err != nil {
						errs[w] = fmt.Errorf("put %d: %w", key, err)
						return
					}
					rec.End(p, siKVOut{Changed: created})
				case 3: // delete
					in := siKVIn{Op: siKVDel, Key: key}
					p := rec.Begin(w, in)
					existed, err := kv.Delete(key)
					if err != nil {
						errs[w] = fmt.Errorf("delete %d: %w", key, err)
						return
					}
					rec.End(p, siKVOut{Changed: existed})
				case 4, 5, 6: // get (snapshot path)
					p := rec.Begin(w, siKVIn{Op: siKVGet, Key: key})
					val, found, err := kv.Get(key)
					if err != nil {
						errs[w] = fmt.Errorf("get %d: %w", key, err)
						return
					}
					pp := rec.End(p, siKVOut{Val: val, Found: found})
					localReads = append(localReads, lincheck.SIRead{
						Worker: w,
						Obs:    []lincheck.SIObs{{Key: key, Val: val, Found: found}},
						Call:   pp.Call, Ret: pp.Ret,
					})
				case 7: // scan (snapshot path, whole keyspace)
					p := rec.Begin(w, siKVIn{Op: siKVScan})
					var err error
					scanBuf, err = kv.ScanAppend(scanBuf, 0, siScanMax)
					if err != nil {
						errs[w] = fmt.Errorf("scan: %w", err)
						return
					}
					pp := rec.End(p, siKVOut{})
					// The scan covered the whole keyspace (siScanMax >>
					// keySpace), so absent keys are genuine absence
					// observations — the phantom check.
					obs := make([]lincheck.SIObs, 0, keySpace)
					got := make(map[uint64]uint64, len(scanBuf))
					for _, kvp := range scanBuf {
						got[kvp.Key] = kvp.Val
					}
					for k := uint64(1); k <= keySpace; k++ {
						if v, ok := got[k]; ok {
							obs = append(obs, lincheck.SIObs{Key: k, Val: v, Found: true})
						} else {
							obs = append(obs, lincheck.SIObs{Key: k})
						}
					}
					localReads = append(localReads, lincheck.SIRead{
						Worker: w, Obs: obs, Call: pp.Call, Ret: pp.Ret,
					})
				case 8: // cross-shard batch: consecutive keys, distinct shards
					n := 2 + r.Intn(3)
					base := uint64(r.Intn(keySpace-n+1) + 1)
					val := uint64(w+1)<<32 | uint64(i+1)
					ops := make([]objstore.BatchOp, n)
					for j := range ops {
						ops[j] = objstore.BatchOp{Key: base + uint64(j), Val: val, Del: r.Intn(4) == 0}
					}
					p := rec.Begin(w, siKVIn{Op: siKVBatch})
					if err := kv.Batch(ops); err != nil {
						errs[w] = fmt.Errorf("batch at %d: %w", base, err)
						return
					}
					pp := rec.End(p, siKVOut{})
					for _, op := range ops {
						in := siKVIn{Op: siKVPut, Key: op.Key, Val: val, Batched: true}
						if op.Del {
							in = siKVIn{Op: siKVDel, Key: op.Key, Batched: true}
						}
						localBatchOps = append(localBatchOps, lincheck.Op{
							Worker: w, Input: in, Output: siKVOut{}, Call: pp.Call, Ret: pp.Ret,
						})
					}
				}
			}
			mu.Lock()
			siReads = append(siReads, localReads...)
			batchOps = append(batchOps, localBatchOps...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// Split the recorded history: write ops, the batches' per-key writes
	// included, go through the Wing & Gong linearizability check, and
	// double as the SI checker's write set.
	var writeOps []lincheck.Op
	var siWrites []lincheck.SIWrite
	for _, op := range append(rec.History(), batchOps...) {
		in := op.Input.(siKVIn)
		switch in.Op {
		case siKVPut:
			writeOps = append(writeOps, op)
			siWrites = append(siWrites, lincheck.SIWrite{
				Key: in.Key, Val: in.Val, Call: op.Call, Ret: op.Ret,
			})
		case siKVDel:
			writeOps = append(writeOps, op)
			siWrites = append(siWrites, lincheck.SIWrite{
				Key: in.Key, Del: true, Call: op.Call, Ret: op.Ret,
			})
		}
	}
	t.Logf("history: %d write ops (%d batched), %d snapshot reads", len(writeOps), len(batchOps), len(siReads))
	if total := len(writeOps) + len(siReads); !testing.Short() && total < 10000 {
		t.Fatalf("stress ran %d ops, below the 10k floor", total)
	}

	if err := lincheck.Check(siKVWriteModel(), writeOps); err != nil {
		t.Fatalf("write history not linearizable: %v", err)
	}
	if err := lincheck.CheckSI(siWrites, siReads); err != nil {
		t.Fatalf("snapshot reads not SI-consistent: %v", err)
	}
	if _, err := kv.Check(); err != nil {
		t.Fatalf("structure invariants after stress: %v", err)
	}

	pub, rec2 := sh.MVCC().Stats()
	t.Logf("mvcc: %d versions published, %d reclaimed", pub, rec2)
	if pub == 0 {
		t.Fatal("stress never exercised the snapshot mirror")
	}
}

// TestKVStaleReadMutationDetected injects the deliberate snapshot bug —
// pins frozen at a stale epoch — and proves CheckSI catches it. A harness
// whose checker stays green under this mutation proves nothing.
func TestKVStaleReadMutationDetected(t *testing.T) {
	sh, err := pmem.NewSharded(pmem.NewStore(), 4, 1)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	kv, err := objstore.CreateKV(sh, "mut")
	if err != nil {
		t.Fatalf("CreateKV: %v", err)
	}

	rec := lincheck.NewRecorder()
	put := func(key, val uint64) lincheck.SIWrite {
		p := rec.Begin(0, key)
		if _, err := kv.Put(key, val); err != nil {
			t.Fatalf("put: %v", err)
		}
		pp := rec.End(p, val)
		return lincheck.SIWrite{Key: key, Val: val, Call: pp.Call, Ret: pp.Ret}
	}
	get := func(key uint64) lincheck.SIRead {
		p := rec.Begin(0, key)
		val, found, err := kv.Get(key)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		pp := rec.End(p, val)
		return lincheck.SIRead{
			Obs:  []lincheck.SIObs{{Key: key, Val: val, Found: found}},
			Call: pp.Call, Ret: pp.Ret,
		}
	}

	w1 := put(5, 1)
	sh.MVCC().MutateStaleReads() // freeze pins at the epoch that sees val 1
	w2 := put(5, 2)
	r := get(5)

	if got := r.Obs[0]; !got.Found || got.Val != 1 {
		t.Fatalf("mutation did not produce a stale read: got %+v", got)
	}
	if err := lincheck.CheckSI([]lincheck.SIWrite{w1, w2}, []lincheck.SIRead{r}); err == nil {
		t.Fatal("SI checker accepted the stale read — the harness cannot detect the bug it exists for")
	} else {
		t.Logf("checker correctly rejected: %v", err)
	}

	// Control: honest pinning restored, the same read passes.
	sh.MVCC().ClearStaleMutation()
	r2 := get(5)
	if got := r2.Obs[0]; !got.Found || got.Val != 2 {
		t.Fatalf("post-clear read = %+v, want val 2", got)
	}
	if err := lincheck.CheckSI([]lincheck.SIWrite{w1, w2}, []lincheck.SIRead{r2}); err != nil {
		t.Fatalf("honest read rejected: %v", err)
	}
}
