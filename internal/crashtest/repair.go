package crashtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/pmem"
)

// The repair campaign proves the media-fault story end to end: a seeded
// workload settles a fault-tolerant KV, single-bit faults are injected
// into the durable AND cached bytes, a scrub pass repairs them, and the
// store must come back byte-for-byte identical to its pre-fault dump —
// with the logical contents re-checked key by key under VerifyOnRead.
// Optionally each round arms a power failure in the middle of the scrub
// itself: repairs are plain persistent writes of the true bytes, so a
// torn or dropped repair must be re-repairable after recovery.

// RepairSummary reports one repair campaign. Its points are rounds, and
// its span is the baseline scrub's.
type RepairSummary struct {
	Tally
	Injected       int
	Repaired       int
	ParityRepaired int
	Unrepairable   int
}

// MarshalJSON renders the summary under the repair campaign's own names:
// rounds for points, scrub_event_span for the span.
func (s RepairSummary) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Rounds         int    `json:"rounds"`
		Injected       int    `json:"injected"`
		Repaired       int    `json:"repaired"`
		ParityRepaired int    `json:"parity_repaired"`
		Unrepairable   int    `json:"unrepairable"`
		Fired          int    `json:"fired"`
		Completed      int    `json:"completed"`
		ScrubSpan      uint64 `json:"scrub_event_span"`
	}{s.Points, s.Injected, s.Repaired, s.ParityRepaired, s.Unrepairable, s.Fired, s.Completed, s.Span})
}

func (s RepairSummary) String() string {
	return fmt.Sprintf("%d rounds, %d faults injected, %d repaired + %d parity, %d crashes fired, scrub span %d events",
		s.Points, s.Injected, s.Repaired, s.ParityRepaired, s.Fired, s.Span)
}

// repairCampaign is the repair campaign on the point loop. Its one world
// lives across the rounds: each round injects faults, scrubs (the
// workload the loop may crash), and checks the store against the
// pre-fault baseline.
type repairCampaign struct {
	opt      Options
	sum      *RepairSummary
	sh       *pmem.Sharded
	kv       *objstore.KV
	model    map[uint64]uint64 // the logical contents, key by key
	baseline map[string][]byte // every pool's durable bytes before any fault
	faults   []pmem.Corruption // this round's
	st       pmem.ScrubStats   // this round's scrub
	crashed  bool
}

// newRepairCampaign settles a fault-tolerant KV under a seeded workload —
// fill the keyspace, then churn it — and takes the baseline. Under the
// NoParity mutation a second churn then runs with parity maintenance
// sabotaged, so later faults in rewritten lines are detectable yet
// unrepairable: the campaign MUST fail.
func newRepairCampaign(opt Options, sum *RepairSummary) (*repairCampaign, error) {
	sh, err := pmem.NewSharded(pmem.NewStore(), opt.Shards, int64(opt.Seed))
	if err != nil {
		return nil, err
	}
	kv, err := objstore.CreateKVFT(sh, "rp")
	if err != nil {
		return nil, err
	}
	c := &repairCampaign{opt: opt, sum: sum, sh: sh, kv: kv, model: make(map[uint64]uint64, opt.KeySpace)}
	rng := rand.New(rand.NewSource(int64(mix64(opt.Seed ^ 0xfa01d))))
	for k := 1; k <= opt.KeySpace; k++ {
		v := rng.Uint64()
		if _, err := kv.Put(uint64(k), v); err != nil {
			return nil, fmt.Errorf("fill Put(%d): %w", k, err)
		}
		c.model[uint64(k)] = v
	}
	churn := func(ops int) error {
		for i := 0; i < ops; i++ {
			key := uint64(rng.Intn(opt.KeySpace) + 1)
			if rng.Intn(5) == 0 {
				if _, err := kv.Delete(key); err != nil {
					return fmt.Errorf("Delete(%d): %w", key, err)
				}
				delete(c.model, key)
				continue
			}
			v := rng.Uint64()
			if _, err := kv.Put(key, v); err != nil {
				return fmt.Errorf("Put(%d): %w", key, err)
			}
			c.model[key] = v
		}
		return nil
	}
	if err := churn(opt.Ops); err != nil {
		return nil, err
	}
	if opt.Mutation == NoParity {
		sh.MutateNoParity(true)
		if err := churn(opt.KeySpace * 2); err != nil {
			return nil, err
		}
	}
	if err := sh.SyncAll(); err != nil {
		return nil, err
	}
	c.baseline = sh.Heap().Store.DumpBytes()
	sh.SetVerifyOnRead(true)
	return c, nil
}

func (c *repairCampaign) begin(point int) ([]*nvmsim.Domain, int, error) {
	faults, err := c.sh.CorruptObjects(c.opt.K, c.opt.Mode, mix64(c.opt.Seed^uint64(point)^0xc0))
	if err != nil {
		return nil, 0, fmt.Errorf("inject: %w", err)
	}
	c.faults = faults
	c.sum.Injected += len(faults)
	return []*nvmsim.Domain{c.sh.Heap().NV}, 0, nil
}

func (c *repairCampaign) run(int) (err error) {
	c.crashed, err = catchCrash(func() (err error) {
		c.st, err = c.sh.ScrubAll()
		return err
	})
	return err
}

func (c *repairCampaign) fired() bool { return c.crashed }

// verify recovers from a mid-scrub crash and scrubs again, then requires
// every fault repaired and the store byte-identical to the baseline, its
// contents equal to the model under VerifyOnRead.
func (c *repairCampaign) verify(fired bool, pol nvmsim.Policy) error {
	sh := c.sh
	if fired {
		if _, err := sh.Crash(pol); err != nil {
			return fmt.Errorf("crash: %w", err)
		}
		// Mount-time reads (log replay, tree root priming) run before
		// the post-crash scrub has cleaned the media, so checksum
		// verification stands down across the reattach and is re-armed
		// once the scrub comes back clean — the model-equality pass below
		// still runs fully verified.
		sh.SetVerifyOnRead(false)
		kv, err := objstore.OpenKV(sh, "rp")
		if err != nil {
			return fmt.Errorf("reattach: %w", err)
		}
		c.kv = kv
		// Re-scrub from scratch: completed repairs are idempotent (they
		// rewrote the true bytes parity still vouches for), torn ones are
		// just corruption found again.
		if c.st, err = sh.ScrubAll(); err != nil {
			return fmt.Errorf("post-crash scrub: %w", err)
		}
		sh.SetVerifyOnRead(true)
		// The reattach may have cached root pointers read off corrupt
		// media; flush the volatile layer now that the bytes are true.
		if err := kv.Reprime(); err != nil {
			return fmt.Errorf("reprime: %w", err)
		}
	}
	st := c.st
	c.sum.Repaired += st.Repaired
	c.sum.ParityRepaired += st.ParityRepaired
	c.sum.Unrepairable += st.Unrepairable
	c.opt.count("repaired", uint64(st.Repaired))
	c.opt.count("parity_repaired", uint64(st.ParityRepaired))
	c.opt.count("unrepairable", uint64(st.Unrepairable))
	if st.Unrepairable > 0 {
		return fmt.Errorf("%d unrepairable faults (injected %v)", st.Unrepairable, c.faults)
	}
	if err := sh.SyncAll(); err != nil {
		return err
	}
	dump := sh.Heap().Store.DumpBytes()
	for name, want := range c.baseline {
		if got := dump[name]; !bytes.Equal(got, want) {
			off := 0
			for off < len(want) && off < len(got) && got[off] == want[off] {
				off++
			}
			return fmt.Errorf("pool %q (%d of %d bytes dumped) diverges from baseline at byte %d", name, len(got), len(want), off)
		}
	}
	for key := uint64(1); key <= uint64(c.opt.KeySpace); key++ {
		v, ok, err := c.kv.Get(key)
		if err != nil {
			return fmt.Errorf("Get(%d): %w", key, err)
		}
		if want, present := c.model[key]; ok != present || (ok && v != want) {
			return fmt.Errorf("Get(%d) = %d,%v, model says %d,%v", key, v, ok, want, present)
		}
	}
	return nil
}

func (c *repairCampaign) end() {}

// runRepair runs the corrupt-scrub-verify campaign.
func runRepair(opt Options) (sum RepairSummary, err error) {
	c, err := newRepairCampaign(opt, &sum)
	if err == nil {
		err = runPoints(opt, c, &sum.Tally, opt.CrashMidScrub)
	}
	return sum, err
}
