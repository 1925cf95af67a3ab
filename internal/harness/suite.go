package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"potgo/internal/cpu"
	"potgo/internal/obs"
)

// Options configures an experiment suite.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Ops overrides every microbenchmark's operation count (0 = the
	// paper's Table 5 counts). Used for quick runs and tests.
	Ops int
	// TPCCOps overrides the TPC-C transaction count (0 = the paper's
	// 1000).
	TPCCOps int
	// TPCC selects the down-scaled TPC-C database for every TPC-C run
	// (RunSpec.TPCC).
	TPCC bool
	// SkipTPCC drops the TPC-C rows from experiments that include them.
	SkipTPCC bool
	// Parallel bounds the number of concurrent simulations during
	// Prefetch (default 1). Each run is single-threaded, self-contained
	// (its own vm.AddressSpace and seeded PRNGs) and CPU-bound, so
	// results are bit-identical at any Parallel value.
	Parallel int
	// Progress, when non-nil, receives a line per completed run. Calls
	// are serialized even when runs complete concurrently.
	Progress func(string)
	// Obs, when non-nil, receives every fresh run's end-of-run metrics
	// plus the suite's own counters (harness.runs, harness.cache_hits,
	// harness.runs_planned). Memoized runs publish nothing — their
	// statistics are already in the registry.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallel <= 0 {
		o.Parallel = 1
	}
	return o
}

// Suite memoizes simulation runs so experiments that share configurations
// (Figure 9 and Table 8; Figure 11 and the BASE columns) execute them once.
type Suite struct {
	opts   Options
	mu     sync.Mutex
	cache  map[string]RunResult
	progMu sync.Mutex
	insns  atomic.Uint64
	// recording puts the suite in PrefetchExperiments' recording mode:
	// Get appends each finished spec to recorded and returns a placeholder
	// instead of simulating.
	recording bool
	recorded  []RunSpec
}

// NewSuite builds a suite.
func NewSuite(opts Options) *Suite {
	return &Suite{opts: opts.withDefaults(), cache: make(map[string]RunResult)}
}

// Options returns the suite's options (with defaults applied).
func (s *Suite) Options() Options { return s.opts }

// SimulatedInstructions returns the total number of instructions simulated
// by fresh (non-memoized) runs so far — the numerator of the simulator's
// throughput in simulated MIPS.
func (s *Suite) SimulatedInstructions() uint64 { return s.insns.Load() }

// finish applies suite-wide option overrides to a spec.
func (s *Suite) finish(spec RunSpec) RunSpec {
	spec.Seed = s.opts.Seed
	if spec.Bench == TPCCBench {
		if spec.Ops == 0 {
			spec.Ops = s.opts.TPCCOps
		}
		spec.TPCC = s.opts.TPCC
	} else if spec.Ops == 0 {
		spec.Ops = s.opts.Ops
	}
	return spec
}

// Get runs (or returns the cached result of) one spec.
func (s *Suite) Get(spec RunSpec) (RunResult, error) {
	spec = s.finish(spec)
	if s.recording {
		// One cycle keeps the bodies' speedup ratios finite.
		s.recorded = append(s.recorded, spec)
		return RunResult{Spec: spec, CPU: cpu.Result{Cycles: 1}}, nil
	}
	k := spec.String()
	s.mu.Lock()
	if r, ok := s.cache[k]; ok {
		s.mu.Unlock()
		s.opts.Obs.Counter("harness.cache_hits").Inc()
		return r, nil
	}
	s.mu.Unlock()
	r, err := RunObserved(spec, RunObs{Metrics: s.opts.Obs})
	if err != nil {
		return RunResult{}, err
	}
	s.insns.Add(r.CPU.Instructions)
	if s.opts.Progress != nil {
		s.progMu.Lock()
		s.opts.Progress(fmt.Sprintf("%-44s cycles=%-12d insns=%-11d polbMiss=%5.2f%%",
			spec.Label(), r.CPU.Cycles, r.CPU.Instructions, 100*r.CPU.POLB.MissRate()))
		s.progMu.Unlock()
	}
	s.mu.Lock()
	s.cache[k] = r
	s.mu.Unlock()
	return r, nil
}

// Prefetch runs all uncached specs on a bounded pool of Options.Parallel
// workers, then returns the first error in spec order (deterministic no
// matter which worker failed first). Specs that finish() to the same
// configuration are deduplicated up front so the pool never runs the same
// simulation twice.
func (s *Suite) Prefetch(specs []RunSpec) error {
	seen := make(map[string]bool, len(specs))
	uniq := specs[:0:0]
	for _, spec := range specs {
		if k := s.finish(spec).String(); !seen[k] {
			seen[k] = true
			uniq = append(uniq, spec)
		}
	}
	s.opts.Obs.Counter("harness.runs_planned").Add(uint64(len(uniq)))
	workers := max(1, min(s.opts.Parallel, len(uniq)))
	work := make(chan int)
	errs := make([]error, len(uniq))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				_, errs[i] = s.Get(uniq[i])
			}
		}()
	}
	for i := range uniq {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// PrefetchExperiments concurrently runs every simulation the given
// experiments will need on the suite's worker pool, so rendering them
// afterwards hits only the cache. The experiment bodies are the only list
// of their specs: each id is rendered once against a recording suite, whose
// Get notes the spec instead of simulating, and those reports are thrown
// away. An unknown id records nothing; RunExperiment reports it.
func (s *Suite) PrefetchExperiments(ids []string) error {
	return s.Prefetch(s.record(ids))
}

// record returns the specs the experiments' bodies Get, in order.
func (s *Suite) record(ids []string) []RunSpec {
	rec := &Suite{opts: s.opts, recording: true}
	for _, id := range ids {
		// A recording Get cannot fail, so an error here (an unknown id,
		// a failed recovery run) recurs when the id renders for real.
		_, _ = rec.RunExperiment(id)
	}
	return rec.recorded
}

// speedupOf runs spec and returns its result and its speedup over base.
func (s *Suite) speedupOf(base RunResult, spec RunSpec) (RunResult, float64, error) {
	r, err := s.Get(spec)
	if err != nil {
		return RunResult{}, 0, err
	}
	sp, err := speedup(base, r)
	return r, sp, err
}

// speedup returns base cycles / variant cycles, verifying that the two runs
// computed the same functional result.
func speedup(base, variant RunResult) (float64, error) {
	if base.Checksum != variant.Checksum {
		return 0, fmt.Errorf("harness: %s vs %s: checksum mismatch %#x vs %#x (functional divergence)",
			base.Spec.Label(), variant.Spec.Label(), base.Checksum, variant.Checksum)
	}
	if variant.CPU.Cycles == 0 {
		return 0, fmt.Errorf("harness: %s: zero cycles", variant.Spec.Label())
	}
	return float64(base.CPU.Cycles) / float64(variant.CPU.Cycles), nil
}
