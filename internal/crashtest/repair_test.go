package crashtest

import (
	"strings"
	"testing"

	"potgo/internal/obs"
	"potgo/internal/pmem"
	"potgo/internal/randtest"
)

func TestRepairCampaignDetect(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		k := k
		t.Run(string(rune('0'+k/10))+string(rune('0'+k%10)), func(t *testing.T) {
			opt := Default(Repair)
			opt.Seed = uint64(randtest.Seed(t, 1))
			opt.K = k
			if k == 16 {
				// 16 faults need 16 distinct parity groups of live data.
				opt.KeySpace = 256
				opt.Ops = 400
			}
			t.Logf("seed %d", opt.Seed)
			res, err := Run(opt)
			sum, _ := res.(RepairSummary)
			if err != nil {
				t.Fatalf("k=%d: %v (summary %+v)", k, err, sum)
			}
			if sum.Injected != k*opt.Points {
				t.Fatalf("injected %d faults, want %d", sum.Injected, k*opt.Points)
			}
			if sum.Repaired+sum.ParityRepaired < sum.Injected {
				t.Fatalf("repaired %d+%d of %d injected", sum.Repaired, sum.ParityRepaired, sum.Injected)
			}
			if sum.Unrepairable != 0 {
				t.Fatalf("unrepairable: %+v", sum)
			}
		})
	}
}

func TestRepairCampaignSilent(t *testing.T) {
	opt := Default(Repair)
	opt.Seed = uint64(randtest.Seed(t, 2))
	opt.Mode = pmem.CorruptSilent
	opt.Obs = obs.NewRegistry()
	t.Logf("seed %d", opt.Seed)
	res, err := Run(opt)
	sum, _ := res.(RepairSummary)
	if err != nil {
		t.Fatalf("%v (summary %+v)", err, sum)
	}
	if sum.Repaired+sum.ParityRepaired < sum.Injected {
		t.Fatalf("silent faults not all found: %+v", sum)
	}
	if got := opt.Obs.Counter("crashtest.repair.rounds").Value(); got != uint64(opt.Points) {
		t.Fatalf("rounds counter = %d, want %d", got, opt.Points)
	}
}

func TestRepairCampaignCrashMidScrub(t *testing.T) {
	opt := Default(Repair)
	opt.Seed = uint64(randtest.Seed(t, 3))
	opt.Points = 6
	opt.CrashMidScrub = true
	t.Logf("seed %d", opt.Seed)
	res, err := Run(opt)
	sum, _ := res.(RepairSummary)
	if err != nil {
		t.Fatalf("%v (summary %+v)", err, sum)
	}
	if sum.Fired == 0 {
		t.Fatalf("no armed crash fired across %d rounds: %+v", opt.Points, sum)
	}
	if sum.Unrepairable != 0 {
		t.Fatalf("unrepairable after crash-mid-scrub recovery: %+v", sum)
	}
	t.Logf("summary %+v", sum)
}

// TestRepairCampaignMutationCheck proves the harness has teeth: with
// parity maintenance sabotaged the campaign must FAIL on unrepairable
// faults, never report success.
func TestRepairCampaignMutationCheck(t *testing.T) {
	opt := Default(Repair)
	opt.Seed = uint64(randtest.Seed(t, 4))
	opt.Mutation = NoParity
	opt.K = 6
	t.Logf("seed %d", opt.Seed)
	res, err := Run(opt)
	sum, _ := res.(RepairSummary)
	if err == nil {
		t.Fatalf("sabotaged campaign reported success: %+v", sum)
	}
	if !strings.Contains(err.Error(), "unrepairable") {
		t.Fatalf("sabotaged campaign failed for the wrong reason: %v", err)
	}
	t.Logf("campaign failed as it must: %v", err)
}
