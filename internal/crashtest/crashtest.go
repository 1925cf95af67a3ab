// Package crashtest is the adversarial crash-injection engine. It drives a
// Target's transactional workload on a heap whose persistence domain
// (internal/nvmsim) numbers every persistent store, CLWB and SFENCE as an
// event, crashes the world just before a chosen event under an adversarial
// line-loss policy, reopens the durable bytes, recovers, and verifies the
// target's invariants against a deterministic model of the committed
// prefix.
//
// Small workloads are swept exhaustively — every event under every policy;
// large ones are seed-sampled. Every failure carries a deterministic replay
// token (target, event, exact survivor set) and, optionally, a minimized
// counterexample: the smallest set of lost cache lines that still breaks
// recovery, found by greedily restoring dropped lines.
//
// That sweep is one of four campaigns, each configured by one Options; the
// MVCC, cluster and repair campaigns crash a whole concurrent world
// instead, on one shared point loop.
package crashtest

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"potgo/internal/emit"
	"potgo/internal/nvmsim"
	"potgo/internal/obs"
	"potgo/internal/pmem"
	"potgo/internal/vm"
)

// Campaign names one of the four crash campaigns: the per-target Sweep
// (RunTarget) and the whole-world MVCC, Cluster and Repair campaigns (Run;
// mvcc.go, cluster.go, repair.go).
type Campaign string

const (
	Sweep   Campaign = "sweep"
	MVCC    Campaign = "mvcc"
	Cluster Campaign = "cluster"
	Repair  Campaign = "repair"
)

// Mutation names a seeded bug. Run with one, its campaign MUST fail, or it
// is proven unable to catch the bug it exists for.
type Mutation string

const (
	DropCLWB        Mutation = "drop-clwb"         // sweep: drop every cache-line write-back
	DropFence       Mutation = "drop-fence"        // sweep: drop every store fence
	StaleRead       Mutation = "stale-read"        // mvcc: freeze snapshot pins at a stale epoch
	SplitBrain      Mutation = "split-brain"       // cluster: no stale-epoch fence, two primaries
	AckBeforeQuorum Mutation = "ack-before-quorum" // cluster: answer writes before replicating them
	NoParity        Mutation = "no-parity"         // repair: let parity go stale under part of the workload
)

// mutationCampaign maps each seeded bug to the campaign that runs it.
var mutationCampaign = map[Mutation]Campaign{
	DropCLWB: Sweep, DropFence: Sweep, StaleRead: MVCC,
	SplitBrain: Cluster, AckBeforeQuorum: Cluster, NoParity: Repair,
}

// Options configures any campaign. Every campaign reads the fields up to
// Mutation; the rest name the campaigns that read them.
type Options struct {
	Campaign Campaign `json:"campaign"`
	// Seed drives the workload streams, the choice of crash points and
	// the seeded policies. Same seed, same campaign.
	Seed uint64 `json:"seed"`
	// Ops sizes the workload: transactions per case (sweep), operations
	// per worker per point (mvcc, cluster), operations after the initial
	// fill (repair).
	Ops int `json:"ops"`
	// Points is the crash points per target, spans at or under it swept
	// exhaustively and <= 0 always (sweep); the points in all, point 0
	// the unarmed baseline (mvcc, cluster); the rounds (repair).
	Points int `json:"points"`
	// Policies are the adversaries: all at each sweep point, in rotation
	// across the points of the other campaigns.
	Policies []nvmsim.Kind `json:"-"`
	// Obs, when non-nil, receives the campaign's counters under
	// "crashtest.". It has no effect on the campaign itself.
	Obs      *obs.Registry `json:"-"`
	Mutation Mutation      `json:"mutation,omitempty"`
	// MaxFailures stops a target after this many failures, each costing a
	// minimization pass; Minimize shrinks each to a minimal dropped-line
	// set (sweep).
	MaxFailures int  `json:"max_failures,omitempty"`
	Minimize    bool `json:"minimize,omitempty"`
	// Workers is the number of concurrent clients (mvcc, cluster).
	Workers int `json:"workers,omitempty"`
	// Shards is each heap's lock-shard count (mvcc, cluster, repair).
	Shards int `json:"shards,omitempty"`
	// KeySpace is the key range [1, KeySpace] the workload churns (mvcc,
	// cluster, repair).
	KeySpace int `json:"key_space,omitempty"`
	// Nodes is the member count, >= 3 so a quorum survives one death
	// (cluster).
	Nodes int `json:"nodes,omitempty"`
	// K single-bit faults are injected per round, in Mode: detect
	// (payload bits, caught by VerifyOnRead) or silent (checksum words
	// and parity lines, found only by scrubbing). CrashMidScrub arms a
	// power failure inside each round's scrub after round 0 (repair).
	K             int              `json:"k,omitempty"`
	Mode          pmem.CorruptMode `json:"mode,omitempty"`
	CrashMidScrub bool             `json:"crash_mid_scrub,omitempty"`
}

// Default returns the CI smoke configuration of campaign c.
func Default(c Campaign) Options {
	all := []nvmsim.Kind{nvmsim.DropAll, nvmsim.KeepRandom, nvmsim.Torn}
	switch c {
	case Sweep:
		return Options{Campaign: c, Seed: 1, Ops: 12, Points: 48, MaxFailures: 1, Minimize: true,
			Policies: []nvmsim.Kind{nvmsim.DropAll, nvmsim.Torn}}
	case MVCC:
		return Options{Campaign: c, Seed: 1, Ops: 60, Points: 12, Policies: all, Workers: 4, Shards: 4, KeySpace: 24}
	case Cluster:
		return Options{Campaign: c, Seed: 1, Ops: 40, Points: 6, Policies: all, Workers: 3, Shards: 2, KeySpace: 32, Nodes: 3}
	case Repair:
		return Options{Campaign: c, Seed: 1, Ops: 200, Points: 3, Policies: all, Shards: 4, KeySpace: 96, K: 4}
	}
	return Options{Campaign: c}
}

// Check reports what makes o unrunnable: an unknown campaign, a mutation
// of another campaign, or a size the campaign reads that is not positive.
func (o Options) Check() error {
	sizes := []int{o.Ops, len(o.Policies), o.Points, o.Shards, o.KeySpace}
	switch o.Campaign {
	case Sweep:
		sizes = []int{o.Ops, len(o.Policies), o.MaxFailures}
	case MVCC:
		sizes = append(sizes, o.Workers)
	case Cluster:
		if o.Nodes < 3 {
			return fmt.Errorf("crashtest: the cluster campaign needs >= 3 nodes, got %d", o.Nodes)
		}
		sizes = append(sizes, o.Workers)
	case Repair:
		sizes = append(sizes, o.K)
	default:
		return fmt.Errorf("crashtest: unknown campaign %q (sweep, mvcc, cluster or repair)", o.Campaign)
	}
	if o.Mutation != "" && mutationCampaign[o.Mutation] != o.Campaign {
		return fmt.Errorf("crashtest: the %s campaign has no mutation %q", o.Campaign, o.Mutation)
	}
	if slices.Min(sizes) <= 0 {
		return fmt.Errorf("crashtest: the %s campaign needs positive sizes and at least one policy", o.Campaign)
	}
	return nil
}

// mutObserver wraps the heap's persist observer and drops every CLWB or
// every fence (the sweep's mutation) before it reaches the cache model.
// The workload and its dry run are mutated, so event numbering stays
// aligned; recovery and verification never are.
type mutObserver struct {
	drop  Mutation
	inner emit.PersistObserver
}

func (m *mutObserver) ObserveCLWB(va uint64) {
	if m.drop != DropCLWB {
		m.inner.ObserveCLWB(va)
	}
}

func (m *mutObserver) ObserveSFence() {
	if m.drop != DropFence {
		m.inner.ObserveSFence()
	}
}

// Failure is one reproducible crash-consistency violation.
type Failure struct {
	Target string `json:"target"`
	// Event is the crash point: the persistence-domain event index the
	// crash preempted.
	Event  uint64 `json:"event"`
	Policy string `json:"policy"`
	Seed   uint64 `json:"policy_seed"`
	// Kept is the exact survivor set the adversary granted
	// (nvmsim.Report.KeptString form) — with Event, the deterministic
	// replay token.
	Kept    string `json:"kept"`
	Dropped int    `json:"dropped_lines"`
	Err     string `json:"error"`
	// MinLost, when minimization ran, is the minimal set of lost or torn
	// lines ("pool:off/mask") that still reproduces the failure.
	MinLost []string `json:"min_lost,omitempty"`
}

// ReplayToken renders the failure's deterministic reproduction handle.
func (f Failure) ReplayToken() string {
	return fmt.Sprintf("%s@%d#%s", f.Target, f.Event, f.Kept)
}

// ParseReplayToken splits a ReplayToken into its target, event and survivor
// set.
func ParseReplayToken(tok string) (target string, event uint64, keep map[nvmsim.Line]byte, err error) {
	target, rest, ok1 := strings.Cut(tok, "@")
	eventS, kept, ok2 := strings.Cut(rest, "#")
	if !ok1 || !ok2 || target == "" {
		return "", 0, nil, fmt.Errorf("crashtest: bad replay token %q", tok)
	}
	event, err = strconv.ParseUint(eventS, 10, 64)
	if err != nil {
		return "", 0, nil, fmt.Errorf("crashtest: bad event in replay token %q", tok)
	}
	keep, err = nvmsim.ParseKept(kept)
	if err != nil {
		return "", 0, nil, err
	}
	return target, event, keep, nil
}

// Summary is one target's campaign result.
type Summary struct {
	Target     string    `json:"target"`
	Span       uint64    `json:"event_span"`
	Points     int       `json:"points"`
	Exhaustive bool      `json:"exhaustive"`
	Cases      int       `json:"cases"`
	Failures   []Failure `json:"failures"`
}

// buildWorld constructs a fresh deterministic world for the target: address
// space, durable store, discard-mode heap, built target state, synced so
// the setup is the durable floor. The mutation, if any, is installed after
// the sync so only the workload runs weakened.
func buildWorld(tg Target, opt Options) (*vm.AddressSpace, *pmem.Store, *pmem.Heap, Instance, error) {
	as := vm.NewAddressSpace(int64(opt.Seed))
	store := pmem.NewStore()
	h, err := pmem.NewHeapDiscard(as, store)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	inst, err := tg.Build(h)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("crashtest: build %s: %w", tg.Name(), err)
	}
	if err := h.SyncAll(); err != nil {
		return nil, nil, nil, nil, err
	}
	if opt.Mutation != "" {
		h.Emit.SetPersistObserver(&mutObserver{drop: opt.Mutation, inner: h})
	}
	return as, store, h, inst, nil
}

// armRun executes fn with a crash armed at the given event. Reaching the
// end of fn without crashing (the point lies past the run's events) is
// legal.
func armRun(h *pmem.Heap, at uint64, fn func() error) (crashed bool, err error) {
	h.NV.Arm(at)
	defer h.NV.Disarm()
	return catchCrash(fn)
}

// catchCrash runs fn, turning an armed crash's CrashSignal panic into a
// crashed return.
func catchCrash(fn func() error) (crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := nvmsim.AsCrashSignal(r); !ok {
				panic(r)
			}
			crashed, err = true, nil
		}
	}()
	return false, fn()
}

func policyFor(kind nvmsim.Kind, seed uint64) nvmsim.Policy {
	switch kind {
	case nvmsim.KeepRandom:
		return nvmsim.KeepRandomPolicy(seed)
	case nvmsim.Torn:
		return nvmsim.TornPolicy(seed)
	default:
		return nvmsim.DropAllPolicy()
	}
}

// runCase builds a world, crashes it just before the given event under pol,
// recovers on a fresh heap and verifies. A non-nil *Failure is a
// crash-consistency violation; a non-nil error is an engine/world problem.
func runCase(tg Target, opt Options, event uint64, pol nvmsim.Policy) (*Failure, error) {
	as, store, h, inst, err := buildWorld(tg, opt)
	if err != nil {
		return nil, err
	}
	if _, err := armRun(h, event, func() error { return inst.Run(opt.Ops) }); err != nil {
		return nil, fmt.Errorf("crashtest: %s workload: %w", tg.Name(), err)
	}
	rep, err := h.Crash(pol)
	if err != nil {
		return nil, err
	}

	h2, err := pmem.NewHeapDiscard(as, store)
	if err != nil {
		return nil, err
	}
	verr := func() error {
		inst2, err := tg.Attach(h2)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		return inst2.Check(opt.Ops)
	}()
	if verr == nil {
		return nil, nil
	}
	return &Failure{
		Target:  tg.Name(),
		Event:   event,
		Policy:  pol.Kind.String(),
		Seed:    pol.Seed,
		Kept:    rep.KeptString(),
		Dropped: len(rep.Dropped),
		Err:     verr.Error(),
	}, nil
}

// reportOf re-runs a case purely for its crash report; minimization needs
// the dropped-line identities, which runCase doesn't retain.
func reportOf(tg Target, opt Options, event uint64, pol nvmsim.Policy) (nvmsim.Report, error) {
	_, _, h, inst, err := buildWorld(tg, opt)
	if err != nil {
		return nvmsim.Report{}, err
	}
	if _, err := armRun(h, event, func() error { return inst.Run(opt.Ops) }); err != nil {
		return nvmsim.Report{}, err
	}
	return h.Crash(pol)
}

// minimizeLimit bounds the resimulations one failure's minimization may
// cost.
const minimizeLimit = 96

// minimize greedily heals the damage one line at a time — restoring dropped
// lines and completing partially-kept (torn) ones. A line whose healing
// makes verification pass is essential to the failure and stays damaged.
// The result is 1-minimal: healing any single reported line no longer
// reproduces the failure. Entries are "pool:off/mask" with the mask the
// adversary left (00 = fully lost).
func minimize(tg Target, opt Options, event uint64, rep nvmsim.Report) []string {
	type candidate struct {
		ln   nvmsim.Line
		mask byte
	}
	var cands []candidate
	for _, ln := range rep.Dropped {
		cands = append(cands, candidate{ln: ln, mask: 0})
	}
	for _, k := range rep.Kept {
		if k.Mask != 0xFF {
			cands = append(cands, candidate{ln: k.Line, mask: k.Mask})
		}
	}
	if len(cands) == 0 || len(cands) > minimizeLimit {
		return nil
	}
	keep := rep.Explicit().Keep
	var essential []string
	for _, c := range cands {
		keep[c.ln] = 0xFF
		fail, err := runCase(tg, opt, event, nvmsim.ExplicitPolicy(keep))
		if err != nil || fail == nil {
			// Healing this line repaired recovery: its damage is part of
			// the counterexample.
			if c.mask == 0 {
				delete(keep, c.ln)
			} else {
				keep[c.ln] = c.mask
			}
			essential = append(essential, fmt.Sprintf("%s/%02x", c.ln, c.mask))
		}
	}
	return essential
}

// RunTarget sweeps one target: a dry run sizes the workload's event span,
// then every selected crash point is tried under every policy.
func RunTarget(tg Target, opt Options) (Summary, error) {
	if opt.Campaign != Sweep {
		return Summary{}, fmt.Errorf("crashtest: RunTarget runs the sweep, not the %s campaign", opt.Campaign)
	}
	if err := opt.Check(); err != nil {
		return Summary{}, err
	}

	// Dry run: the workload must complete cleanly and produce events.
	_, _, h, inst, err := buildWorld(tg, opt)
	if err != nil {
		return Summary{}, err
	}
	base := h.NV.Events()
	if err := inst.Run(opt.Ops); err != nil {
		return Summary{}, fmt.Errorf("crashtest: %s dry run: %w", tg.Name(), err)
	}
	span := h.NV.Events() - base
	if span == 0 {
		return Summary{}, fmt.Errorf("crashtest: %s workload produced no persistence events", tg.Name())
	}

	points, exhaustive := pickPoints(base, span, opt)
	sum := Summary{Target: tg.Name(), Span: span, Points: len(points), Exhaustive: exhaustive}
	opt.Obs.Counter("crashtest.events_spanned").Add(span)
	opt.Obs.Counter("crashtest.points_selected").Add(uint64(len(points)))
	opt.Obs.Counter("crashtest.cases_planned").Add(uint64(len(points) * len(opt.Policies)))
	defer func() {
		opt.Obs.Counter("crashtest.targets_completed").Inc()
	}()
	for _, e := range points {
		for _, kind := range opt.Policies {
			pol := policyFor(kind, opt.Seed^e)
			fail, err := runCase(tg, opt, e, pol)
			if err != nil {
				return sum, err
			}
			sum.Cases++
			opt.Obs.Counter("crashtest.cases_explored").Inc()
			if fail == nil {
				continue
			}
			opt.Obs.Counter("crashtest.failures").Inc()
			if opt.Minimize {
				if rep, err := reportOf(tg, opt, e, pol); err == nil {
					fail.MinLost = minimize(tg, opt, e, rep)
				}
			}
			sum.Failures = append(sum.Failures, *fail)
			if len(sum.Failures) >= opt.MaxFailures {
				return sum, nil
			}
		}
	}
	return sum, nil
}

// pickPoints selects the crash points for a span starting at base:
// exhaustive when it fits the budget, otherwise seed-sampled without
// replacement.
func pickPoints(base, span uint64, opt Options) ([]uint64, bool) {
	if opt.Points <= 0 || span <= uint64(opt.Points) {
		out := make([]uint64, span)
		for i := range out {
			out[i] = base + uint64(i)
		}
		return out, true
	}
	pick := make(map[uint64]bool, opt.Points)
	s := opt.Seed ^ 0xc4a5e
	for len(pick) < opt.Points {
		s = mix64(s)
		pick[base+s%span] = true
	}
	out := make([]uint64, 0, len(pick))
	for e := range pick {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, false
}

// Replay reproduces one recorded case exactly: crash at the event with the
// recorded survivor set, recover, verify. It returns the verification
// error, nil if the case now passes. Options must match the recording
// campaign's (seed, ops, mutation) for the replay to be faithful.
func Replay(tg Target, opt Options, event uint64, keep map[nvmsim.Line]byte) error {
	fail, err := runCase(tg, opt, event, nvmsim.ExplicitPolicy(keep))
	if err != nil {
		return err
	}
	if fail == nil {
		return nil
	}
	return fmt.Errorf("%s", fail.Err)
}
