// Package core glues the paper's contribution together: the hardware
// ObjectID-translation engine that the nvld/nvst instructions engage.
//
// A Translator owns a POLB and consults the process's POT on misses,
// implementing both the Pipelined and Parallel designs of paper §4 and the
// "ideal" machine of the evaluation (translation with zero added latency),
// and accounting every cycle the way the timing models need it:
//
//	Pipelined: every nvld/nvst pays the POLB access latency (3 cycles) in
//	  the AGEN stage; a POLB miss stalls AGEN for the fixed POT-walk
//	  latency (30 cycles). The output is a *virtual* address, which then
//	  takes the ordinary TLB + cache path.
//
//	Parallel: a POLB hit costs nothing extra (the look-up overlaps the
//	  VIPT L1 access) and yields a *physical* address, skipping the TLB.
//	  A miss pays the combined POT-walk + page-table-walk latency
//	  (60 cycles), after which the physical translation is installed.
//
// A POT miss models the paper's exception: the OS is invoked; in this
// simulator it surfaces as an error because the workloads always map pools
// before use.
package core

import (
	"fmt"

	"potgo/internal/oid"
	"potgo/internal/polb"
	"potgo/internal/pot"
	"potgo/internal/vm"
)

// Config selects the translation microarchitecture and its latencies.
// Zero-value latencies mean "use the paper defaults".
type Config struct {
	// Design picks Pipelined or Parallel (paper Figure 6).
	Design polb.Design
	// POLBSize is the POLB entry count; 0 models "no POLB" (every
	// translation walks the POT).
	POLBSize int
	// POLBSets is the set count for the set-associative ablation; 0 or 1
	// builds the paper's fully-associative CAM.
	POLBSets int
	// POLBLatency is the CAM access latency in cycles (paper: 3).
	POLBLatency uint64
	// POTWalkLatency is the fixed POLB-miss service latency in cycles
	// (paper: 30 for Pipelined; 60 for Parallel, covering the POT walk
	// plus the page-table walk). 0 means "use the design default"; use
	// ZeroWalk for a free walk (the Fig. 12 ideal point).
	POTWalkLatency int64
	// Ideal charges no POLB access latency and no POT-walk penalty — the
	// red-dot upper bound in the paper's Figure 9.
	Ideal bool
	// ProbeWalk replaces the fixed POT-walk latency with a
	// probe-accurate one: each entry the hardware walker examines is
	// charged as a real (cached) memory access via the attached Walker.
	// Ablation for the paper's fixed-latency assumption (§5.1 argues the
	// fixed 30 cycles is pessimistic because POT entries cache well).
	ProbeWalk bool
}

// Walker charges the memory accesses of a hardware POT walk (implemented by
// the memory hierarchy).
type Walker interface {
	// WalkAccess returns the latency of one walker access to va.
	WalkAccess(va uint64) uint64
}

// ZeroWalk as POTWalkLatency requests a free POT walk while keeping the
// POLB access latency (the Fig. 12 zero-penalty point).
const ZeroWalk int64 = -1

// DefaultConfig returns the paper's configuration for the given design with
// a 32-entry POLB.
func DefaultConfig(design polb.Design) Config {
	cfg := Config{
		Design:      design,
		POLBSize:    polb.DefaultEntries,
		POLBLatency: 3,
	}
	if design == polb.Parallel {
		cfg.POTWalkLatency = 60
	} else {
		cfg.POTWalkLatency = 30
	}
	return cfg
}

// Result describes one hardware translation.
type Result struct {
	// VA is the translated virtual address (always available; Parallel
	// computes it for the fill path and functional access).
	VA uint64
	// PA is the physical address. For Parallel it comes straight from
	// the POLB/fill; for Pipelined it is resolved later by the TLB path,
	// so the timing model must not use it before charging the TLB.
	PA uint64
	// CAMLat is the POLB access latency (charged only by the Pipelined
	// design, whose CAM sits serially in AGEN; the CAM is itself
	// pipelined, so this extends load-to-use latency without blocking
	// issue).
	CAMLat uint64
	// WalkLat is the POT-walk penalty on a POLB miss (plus the page-table
	// walk under Parallel). The walk stalls address generation.
	WalkLat uint64
	// Latency is the total added translation cost: CAMLat + WalkLat.
	Latency uint64
	// POLBHit reports whether the POLB satisfied the translation.
	POLBHit bool
	// BypassTLB is set when the translation already yielded a physical
	// address (Parallel hit or Parallel fill), so the TLB is not
	// consulted.
	BypassTLB bool
}

// Stats counts translator activity.
type Stats struct {
	Translations uint64
	POLBHits     uint64
	POLBMisses   uint64
	POTWalks     uint64
	Exceptions   uint64
	// WalkCycles is the total stall charged for POT walks (the WalkLat
	// sum over all misses), the translation half of a CPI stack.
	WalkCycles uint64
}

// POLBMissRate returns POLB misses / translations.
//
//potlint:allow unusedexport kept for TestPipelinedTranslationLatencies and TestPOLBMissRateEmpty
func (s Stats) POLBMissRate() float64 {
	if s.Translations == 0 {
		return 0
	}
	return float64(s.POLBMisses) / float64(s.Translations)
}

// Translator is the per-core ObjectID translation engine.
type Translator struct {
	cfg    Config
	polb   *polb.POLB
	pot    *pot.Table
	as     *vm.AddressSpace
	walker Walker
	stats  Stats
}

// New builds a Translator over the process's POT and address space.
func New(cfg Config, table *pot.Table, as *vm.AddressSpace) *Translator {
	def := DefaultConfig(cfg.Design)
	if cfg.POLBLatency == 0 {
		cfg.POLBLatency = def.POLBLatency
	}
	switch {
	case cfg.POTWalkLatency == ZeroWalk:
		cfg.POTWalkLatency = 0
	case cfg.POTWalkLatency == 0 && !cfg.Ideal:
		cfg.POTWalkLatency = def.POTWalkLatency
	}
	lb := polb.New(cfg.Design, cfg.POLBSize)
	if cfg.POLBSets > 1 {
		ways := cfg.POLBSize / cfg.POLBSets
		var err error
		lb, err = polb.NewSetAssociative(cfg.Design, cfg.POLBSets, ways)
		if err != nil {
			panic(err) // geometry is experiment configuration, not user input
		}
	}
	return &Translator{
		cfg:  cfg,
		polb: lb,
		pot:  table,
		as:   as,
	}
}

// SetWalker attaches the memory hierarchy used by the probe-accurate walk
// model (no-op relevance unless Config.ProbeWalk is set).
func (t *Translator) SetWalker(w Walker) { t.walker = w }

// Config returns the translator's configuration.
//
//potlint:allow unusedexport kept for TestZeroConfigGetsDefaults
func (t *Translator) Config() Config { return t.cfg }

// POLB exposes the look-aside buffer (for pool-close invalidation and
// statistics).
func (t *Translator) POLB() *polb.POLB { return t.polb }

// Translate services one nvld/nvst ObjectID look-up.
func (t *Translator) Translate(o oid.OID) (Result, error) {
	t.stats.Translations++
	if o.IsNull() {
		t.stats.Exceptions++
		return Result{}, fmt.Errorf("core: dereference of NULL ObjectID %v", o)
	}

	var res Result
	if !t.cfg.Ideal && t.cfg.Design == polb.Pipelined {
		// The CAM access sits in AGEN ahead of the TLB/L1.
		res.CAMLat = t.cfg.POLBLatency
		res.Latency += t.cfg.POLBLatency
	}

	if data, hit := t.polb.Lookup(o); hit {
		t.stats.POLBHits++
		res.POLBHit = true
		if t.cfg.Design == polb.Pipelined {
			res.VA = data + uint64(o.Offset())
		} else {
			res.PA = data | o.PageOffset()
			res.BypassTLB = true
			// VA is still derivable for functional accesses.
			va, err := t.vaOf(o)
			if err != nil {
				return Result{}, err
			}
			res.VA = va
		}
		return res, nil
	}

	// POLB miss: hardware POT walk (paper Figure 7).
	t.stats.POLBMisses++
	t.stats.POTWalks++
	vbase, probes, err := t.pot.Walk(o.Pool())
	switch {
	case t.cfg.Ideal:
		// Free.
	case t.cfg.ProbeWalk && t.walker != nil && err == nil:
		// Probe-accurate: each examined entry is one memory access by
		// the hardware walker; Parallel additionally pays its
		// page-table walk as the fixed difference between the two
		// designs' default penalties.
		for _, va := range t.pot.ProbeAddrs(o.Pool(), probes) {
			res.WalkLat += t.walker.WalkAccess(va)
		}
		if t.cfg.Design == polb.Parallel {
			res.WalkLat += 30
		}
		res.Latency += res.WalkLat
	case t.cfg.POTWalkLatency > 0:
		res.WalkLat = uint64(t.cfg.POTWalkLatency)
		res.Latency += uint64(t.cfg.POTWalkLatency)
	}
	t.stats.WalkCycles += res.WalkLat
	if err != nil {
		t.stats.Exceptions++
		return Result{}, fmt.Errorf("core: pool %d: %w", o.Pool(), err)
	}
	res.VA = vbase + uint64(o.Offset())

	if t.cfg.Design == polb.Pipelined {
		t.polb.Fill(o, vbase)
		return res, nil
	}

	// Parallel: the walk continues through the page table to a physical
	// frame; the POLB caches the frame for this (pool, page) pair.
	pa, ok := t.as.Translate(res.VA)
	if !ok {
		t.stats.Exceptions++
		return Result{}, fmt.Errorf("core: pool %d maps to unmapped page at %#x", o.Pool(), res.VA)
	}
	res.PA = pa
	res.BypassTLB = true
	t.polb.Fill(o, pa&^uint64(vm.PageMask))
	return res, nil
}

// vaOf resolves an ObjectID to a virtual address via the POT without
// charging hardware statistics (used on Parallel hits where the functional
// layer still wants the VA).
func (t *Translator) vaOf(o oid.OID) (uint64, error) {
	vbase, ok := t.pot.Lookup(o.Pool())
	if !ok {
		return 0, fmt.Errorf("core: pool %d vanished from POT", o.Pool())
	}
	return vbase + uint64(o.Offset()), nil
}

// InvalidatePool drops POLB entries for a pool (called on pool_close).
func (t *Translator) InvalidatePool(p oid.PoolID) { t.polb.InvalidatePool(p) }

// Stats snapshots translation counters.
func (t *Translator) Stats() Stats { return t.stats }
