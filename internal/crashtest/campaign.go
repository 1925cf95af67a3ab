package crashtest

import (
	"fmt"
	"sort"

	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/pds"
	"potgo/internal/pmem"
)

// Run runs the whole-world campaign opt.Campaign names and returns its
// MVCCSummary, ClusterSummary or RepairSummary, whose String is a one-line
// verdict. Under a seeded bug (opt.Mutation) the error is the verifier's
// rejection, and nil means the bug slipped through.
func Run(opt Options) (sum fmt.Stringer, err error) {
	if err := opt.Check(); err != nil {
		return nil, err
	}
	switch opt.Campaign {
	case MVCC:
		sum, err = runMVCC(opt)
	case Cluster:
		sum, err = runCluster(opt)
	case Repair:
		sum, err = runRepair(opt)
	default:
		err = fmt.Errorf("crashtest: Run drives the whole-world campaigns; the sweep runs per target (RunTarget)")
	}
	return sum, err
}

// Tally is the point accounting every whole-world summary carries; only
// the point loop fills it. Fired counts armed points whose crash hit,
// Completed armed points whose workload drained first; point 0 is never
// armed. Span is the baseline's event span in the armed domain.
type Tally struct {
	Points    int    `json:"points"`
	Fired     int    `json:"fired"`
	Completed int    `json:"completed"`
	Span      uint64 `json:"event_span"`
}

// pointWorld is a whole-world campaign as the point loop drives it: its
// world builder (begin), workload (run) and verifier (verify).
type pointWorld interface {
	// begin readies point's world and returns the persistence domains the
	// baseline measures and the index of the one a crash is armed in.
	begin(point int) (doms []*nvmsim.Domain, victim int, err error)
	run(point int) error
	// fired reports whether the armed crash hit, asked once disarmed.
	fired() bool
	// verify power-cycles a crashed world under pol, recovers, and checks
	// the campaign's invariants.
	verify(fired bool, pol nvmsim.Policy) error
	end()
}

// campaignLoop is what the loop varies per campaign: the salt of the
// policy seeds, which keeps each campaign's points and policies as they
// always were, and the counter name of a verified point.
var campaignLoop = map[Campaign]struct {
	salt uint64
	unit string
}{MVCC: {0x3c, "points"}, Cluster: {0xcc, "points"}, Repair: {0xcc, "rounds"}}

// count adds d to the counter crashtest.<campaign>.<name>.
func (o Options) count(name string, d uint64) {
	o.Obs.Counter("crashtest." + string(o.Campaign) + "." + name).Add(d)
}

// runPoints is the point loop. Point 0 runs unarmed and measures every
// domain's event span. When arms is set, each later point p arms the
// victim domain at start + 1 + mix64(seed^p) % span, start being its event
// count as the workload begins. Policies rotate across the points.
func runPoints(opt Options, w pointWorld, t *Tally, arms bool) error {
	loop := campaignLoop[opt.Campaign]
	t.Points = opt.Points
	var spans []uint64
	for point := 0; point < opt.Points; point++ {
		err := func() error {
			doms, victim, err := w.begin(point)
			if err != nil {
				return fmt.Errorf("point %d: %w", point, err)
			}
			defer w.end()
			pol := nvmsim.Policy{Kind: opt.Policies[point%len(opt.Policies)], Seed: mix64(opt.Seed ^ uint64(point) ^ loop.salt)}
			armed, arm := arms && point > 0, uint64(0)
			if armed {
				arm = doms[victim].Events() + 1 + mix64(opt.Seed^uint64(point))%spans[victim]
				doms[victim].Arm(arm)
			} else if point == 0 {
				spans = make([]uint64, len(doms))
				for i, d := range doms {
					spans[i] = d.Events()
				}
			}
			err = w.run(point)
			doms[victim].Disarm() // an unreached arm point must not fire during verification
			if err != nil {
				return fmt.Errorf("point %d: %w", point, err)
			}
			if point == 0 {
				for i, d := range doms {
					if spans[i] = d.Events() - spans[i]; arms && spans[i] == 0 {
						return fmt.Errorf("crashtest: baseline run produced no persistence events in domain %d", i)
					}
				}
				t.Span = spans[victim]
			}
			fired := w.fired()
			if armed && fired {
				t.Fired++
				opt.count("fired", 1)
			} else if armed {
				t.Completed++
				opt.count("completed", 1)
			}
			if err := w.verify(fired, pol); err != nil {
				return fmt.Errorf("point %d (arm=%d, policy=%s, fired=%v): %w", point, arm, pol.Kind, fired, err)
			}
			return nil
		}()
		if err != nil {
			return err
		}
		opt.count(loop.unit, 1)
	}
	return nil
}

// recoverPrefixes power-cycles sh under pol, reattaches the KV called
// name, and proves the journaled-counter protocol against live's journals
// (live is the store as it ran): each shard's recovered counter c lies in
// [acked[i], len(journal)], acked nil meaning 0, and the durable prefixes
// journal[:c] replay to exactly the recovered contents, read back key by
// key. It returns the reattached store, that model and the durable ops.
func recoverPrefixes(sh *pmem.Sharded, live *objstore.KV, name string, acked []uint64, pol nvmsim.Policy, opt Options) (
	kv *objstore.KV, model map[uint64]uint64, durable []objstore.BatchOp, err error) {
	if _, err := sh.Crash(pol); err != nil {
		return nil, nil, nil, fmt.Errorf("crash: %w", err)
	}
	if kv, err = objstore.OpenKV(sh, name); err != nil {
		return nil, nil, nil, fmt.Errorf("reattach: %w", err)
	}
	total, err := kv.Check()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("structure invariants: %w", err)
	}
	model = make(map[uint64]uint64)
	for i := 0; i < opt.Shards; i++ {
		journal := live.Journal(i)
		c, err := kv.Counter(i)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("shard %d counter: %w", i, err)
		}
		var lo uint64
		if acked != nil {
			lo = acked[i]
		}
		if c < lo || c > uint64(len(journal)) {
			return nil, nil, nil, fmt.Errorf("shard %d: recovered counter %d outside [acked=%d, journaled=%d]", i, c, lo, len(journal))
		}
		for k, v := range objstore.ReplayKVJournal(journal, int(c)) {
			model[k] = v
		}
		durable = append(durable, journal[:c]...)
	}
	if total != len(model) {
		return nil, nil, nil, fmt.Errorf("%d keys recovered, committed prefixes replay to %d", total, len(model))
	}
	return kv, model, durable, checkKeys("recovered store", kv.Get, model, opt.KeySpace)
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
			return &keyMismatch{view: view, key: key, val: val, ok: ok, want: want, wantOK: wantOK}
		}
	}
	return nil
}

// keyMismatch is a read that disagrees with the model. It names the key,
// so a cluster point can add that key's trail to the report.
type keyMismatch struct {
	view       string
	key        uint64
	val, want  uint64
	ok, wantOK bool
}

func (e *keyMismatch) Error() string {
	return fmt.Sprintf("%s: key %d reads (%d,%v), the model says (%d,%v)", e.view, e.key, e.val, e.ok, e.want, e.wantOK)
}

// checkScan scans past the end of the key range through scan and requires
// exactly the model's pairs, in key order.
func checkScan(view string, scan func(from uint64, max int) ([]pds.KV, error), model map[uint64]uint64, keySpace int) error {
	got, err := scan(0, keySpace+64)
	if err != nil {
		return fmt.Errorf("%s: scan: %w", view, err)
	}
	if len(got) != len(model) {
		return fmt.Errorf("%s: scan returned %d pairs, the model holds %d", view, len(got), len(model))
	}
	keys := make([]uint64, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, k := range keys {
		if got[i].Key != k || got[i].Val != model[k] {
			return fmt.Errorf("%s: scan[%d] = (%d,%d), want (%d,%d)", view, i, got[i].Key, got[i].Val, k, model[k])
		}
	}
	return nil
}
