package crashtest

import (
	"errors"
	"strings"
	"testing"

	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/obs"
	"potgo/internal/randtest"
)

// TestMVCCCampaign runs the full MVCC crash campaign: armed crashes under
// a snapshot-read workload with concurrent epoch reclamation, power cycles
// under rotating adversaries, and the journaled-counter + snapshot-sweep
// verification after each one.
func TestMVCCCampaign(t *testing.T) {
	opt := Default(MVCC)
	opt.Seed = uint64(randtest.Seed(t, 11))
	if testing.Short() {
		opt.Points = 4
	}
	reg := obs.NewRegistry()
	opt.Obs = reg

	res, err := Run(opt)
	sum, _ := res.(MVCCSummary)
	if err != nil {
		t.Fatalf("mvcc campaign: %v", err)
	}
	t.Logf("points=%d fired=%d completed=%d acked=%d batches=%d snapReads=%d reclaims=%d span=%d",
		sum.Points, sum.Fired, sum.Completed, sum.AckedOps, sum.AckedBatches, sum.SnapshotReads, sum.Reclaims, sum.Span)
	if sum.Fired == 0 {
		t.Fatal("no sampled crash point fired: the campaign never crashed mid-workload")
	}
	if sum.AckedOps == 0 || sum.SnapshotReads == 0 {
		t.Fatalf("campaign too quiet: acked=%d snapshot reads=%d", sum.AckedOps, sum.SnapshotReads)
	}
	if sum.Reclaims == 0 {
		t.Fatal("the reclamation goroutine never swept")
	}
	if sum.AckedBatches == 0 {
		t.Fatal("no cross-shard batch was acknowledged: batch atomicity went unproven")
	}
}

// TestMVCCQuiescentDurability pins the baseline property on its own: with
// no crash armed, a drained workload, batches included, must survive the
// harshest policy, because everything acknowledged is durable by
// construction.
func TestMVCCQuiescentDurability(t *testing.T) {
	opt := Default(MVCC)
	opt.Seed = uint64(randtest.Seed(t, 3))
	opt.Points = 1 // only the unarmed baseline
	opt.Policies = []nvmsim.Kind{nvmsim.DropAll}
	res, err := Run(opt)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	// The baseline is never armed, so it counts as neither fired nor
	// completed.
	if sum := res.(MVCCSummary); sum.Points != 1 || sum.Completed != 0 || sum.Fired != 0 || sum.AckedBatches == 0 {
		t.Fatalf("baseline summary off: %+v", sum)
	}
}

// TestMVCCSplitBatchCaught is the must-fail gate for batch atomicity. One
// logical cross-shard batch goes to the store as two KV.Batch calls but is
// recorded as one batch, and a crash lands at the first event after the
// first call returned. The verifier must reject the half that became
// durable; the same crash against the unsplit batch must pass.
func TestMVCCSplitBatchCaught(t *testing.T) {
	opt := Default(MVCC)
	opt.Seed = uint64(randtest.Seed(t, 13))
	tag := mvBatchTag | 1
	ops := []objstore.BatchOp{{Key: 1, Val: tag}, {Key: 2, Val: tag}}
	pol := nvmsim.Policy{Kind: nvmsim.DropAll}

	// The crash point: on an unarmed twin world with the same seed, the
	// event after the first half returns.
	twin, err := buildMVCCWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.kv.Batch(ops[:1]); err != nil {
		t.Fatalf("twin first half: %v", err)
	}
	armAt := twin.sh.Heap().NV.Events() + 1

	run := func(split bool) error {
		w, err := buildMVCCWorld(opt)
		if err != nil {
			t.Fatal(err)
		}
		acked := make([]uint64, opt.Shards)
		w.sh.Heap().NV.Arm(armAt)
		fired := func() (fired bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := nvmsim.AsCrashSignal(r); !ok {
						panic(r)
					}
					fired = true
				}
			}()
			if split {
				if err := w.kv.Batch(ops[:1]); err != nil {
					t.Fatalf("first half: %v", err)
				}
				acked[ops[0].Key%uint64(opt.Shards)]++
				if err := w.kv.Batch(ops[1:]); err != nil {
					t.Fatalf("second half: %v", err)
				}
			} else if err := w.kv.Batch(ops); err != nil {
				t.Fatalf("batch: %v", err)
			}
			return false
		}()
		w.sh.Heap().NV.Disarm()
		if !fired {
			t.Fatalf("split=%v: the crash armed at event %d never fired", split, armAt)
		}
		return verifyMVCC(w, mvRun{acked: acked, batches: []mvBatch{{tag: tag, ops: len(ops)}}}, pol, opt)
	}

	if err := run(false); err != nil {
		t.Fatalf("control (unsplit batch) rejected: %v", err)
	}
	err = run(true)
	if err == nil {
		t.Fatal("split batch went undetected: the verifier cannot prove batch atomicity")
	}
	if !errors.Is(err, errTornBatch) {
		t.Fatalf("split batch rejected for the wrong reason: %v", err)
	}
	t.Logf("detected: %v", err)
}

// TestMVCCStaleMutationCaught proves the campaign's SI checker catches the
// frozen-pin bug injection — the mutation mode must FAIL.
func TestMVCCStaleMutationCaught(t *testing.T) {
	opt := Default(MVCC)
	opt.Seed = uint64(randtest.Seed(t, 12))
	opt.Points = 1
	opt.Mutation = StaleRead
	_, err := Run(opt)
	if err == nil {
		t.Fatal("stale-read mutation went undetected — the harness cannot catch the bug it exists for")
	}
	if !strings.Contains(err.Error(), "SI violation") {
		t.Fatalf("mutation mode failed for the wrong reason: %v", err)
	}
	t.Logf("detected: %v", err)
}

// TestMVCCCampaignRejectsBadOptions pins the option validation.
func TestMVCCCampaignRejectsBadOptions(t *testing.T) {
	opt := Default(MVCC)
	opt.Workers = 0
	if _, err := Run(opt); err == nil {
		t.Fatal("zero workers accepted")
	}
	opt = Default(MVCC)
	opt.Mutation = SplitBrain
	if _, err := Run(opt); err == nil || !strings.Contains(err.Error(), "has no mutation") {
		t.Fatalf("a cluster mutation on the mvcc campaign: %v", err)
	}
}
