package harness

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"potgo/internal/obs"
	"potgo/internal/workloads"
)

// TestParallelGridDeterministic guards the "parallelism never changes
// results" invariant: the Figure 9(a) grid run with Parallel=1 and
// Parallel=8 must produce identical cycles, instruction counts, and
// checksums for every spec.
func TestParallelGridDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig 9(a) grid twice")
	}
	mk := func(parallel int) *Suite {
		return NewSuite(Options{Seed: 7, Ops: 60, SkipTPCC: true, Parallel: parallel})
	}
	serial, concurrent := mk(1), mk(8)
	specs := serial.record([]string{"fig9a"})
	if len(specs) == 0 {
		t.Fatal("fig9a records no specs")
	}
	if err := serial.Prefetch(specs); err != nil {
		t.Fatal(err)
	}
	if err := concurrent.Prefetch(specs); err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		a, err := serial.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := concurrent.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		if a.CPU.Cycles != b.CPU.Cycles || a.CPU.Instructions != b.CPU.Instructions || a.Checksum != b.Checksum {
			t.Errorf("%s: serial (cycles=%d insns=%d sum=%#x) != parallel (cycles=%d insns=%d sum=%#x)",
				spec.Label(), a.CPU.Cycles, a.CPU.Instructions, a.Checksum,
				b.CPU.Cycles, b.CPU.Instructions, b.Checksum)
		}
	}
}

// TestPrefetchCoversExperiments pins the recording pass to the experiment
// bodies: after PrefetchExperiments(id), rendering the experiment must
// perform no new simulations (every Get is a cache hit).
func TestPrefetchCoversExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment grid")
	}
	s := NewSuite(Options{Seed: 11, Ops: 50, SkipTPCC: true, Parallel: 4})
	for _, id := range ExperimentIDs {
		if err := s.PrefetchExperiments([]string{id}); err != nil {
			t.Fatalf("%s: prefetch: %v", id, err)
		}
		assertNoFreshRuns(t, s, id)
	}
}

// TestTable2ReusesFig9a checks that Table 2 reads Figure 9(a)'s in-order
// BASE runs: once fig9a is prefetched, table2 simulates nothing new.
func TestTable2ReusesFig9a(t *testing.T) {
	s := NewSuite(Options{Seed: 3, Ops: 30, SkipTPCC: true, Parallel: 2})
	if err := s.PrefetchExperiments([]string{"fig9a"}); err != nil {
		t.Fatal(err)
	}
	assertNoFreshRuns(t, s, "table2")
}

// assertNoFreshRuns renders id and fails if that grew s's cache.
func assertNoFreshRuns(t *testing.T, s *Suite, id string) {
	t.Helper()
	s.mu.Lock()
	before := len(s.cache)
	s.mu.Unlock()
	if _, err := s.RunExperiment(id); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	s.mu.Lock()
	after := len(s.cache)
	s.mu.Unlock()
	if after != before {
		t.Errorf("%s: rendering ran %d simulations the recording pass missed", id, after-before)
	}
}

// TestRecordingRunsNothing checks that the recording pass is free of side
// effects: it records every id's specs, yet the suite's cache stays empty,
// no instruction is counted and no metric (harness.runs included) is
// published.
func TestRecordingRunsNothing(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSuite(Options{Seed: 1, Ops: 30, Obs: reg})
	if specs := s.record(ExperimentIDs); len(specs) == 0 {
		t.Fatal("recording pass recorded no specs")
	}
	if n := len(s.cache); n != 0 {
		t.Errorf("recording pass cached %d results", n)
	}
	if n := s.SimulatedInstructions(); n != 0 {
		t.Errorf("recording pass counted %d simulated instructions", n)
	}
	if snap := reg.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("recording pass published metrics: %v", snap.Counters)
	}
}

// TestPrefetchFirstErrorDeterministic checks that Prefetch reports the error
// of the earliest failing spec in list order, however the workers interleave.
func TestPrefetchFirstErrorDeterministic(t *testing.T) {
	s := NewSuite(Options{Seed: 1, Ops: 20, Parallel: 8})
	specs := []RunSpec{
		{Bench: "LL", Pattern: workloads.All, Tx: true, Core: InOrder},
		{Bench: "BOGUS-A"},
		{Bench: "BST", Pattern: workloads.All, Tx: true, Core: InOrder},
		{Bench: "BOGUS-B"},
	}
	for i := 0; i < 3; i++ {
		err := NewSuite(s.opts).Prefetch(specs)
		if err == nil {
			t.Fatal("prefetch must surface run errors")
		}
		if want := `"BOGUS-A"`; !strings.Contains(err.Error(), want) {
			t.Fatalf("got %q, want the first failing spec's error (%s)", err, want)
		}
	}
}

// TestPrefetchDedupes verifies that duplicate specs in one Prefetch batch
// run exactly once.
func TestPrefetchDedupes(t *testing.T) {
	s := NewSuite(Options{Seed: 1, Ops: 30, Parallel: 4})
	spec := RunSpec{Bench: "LL", Pattern: workloads.All, Tx: true, Core: InOrder}
	if err := s.Prefetch([]RunSpec{spec, spec, spec, spec}); err != nil {
		t.Fatal(err)
	}
	if n := len(s.cache); n != 1 {
		t.Errorf("cache holds %d entries after prefetching 4 copies of one spec, want 1", n)
	}
}

// TestProgressSerialized checks the progress callback is never invoked
// concurrently during a parallel prefetch: each invocation holds a flag for
// a moment, and a second invocation arriving meanwhile counts as an overlap.
func TestProgressSerialized(t *testing.T) {
	var active, overlaps atomic.Int32
	opts := Options{Seed: 1, Ops: 30, Parallel: 8, Progress: func(string) {
		if !active.CompareAndSwap(0, 1) {
			overlaps.Add(1)
			return
		}
		time.Sleep(2 * time.Millisecond)
		active.Store(0)
	}}
	s := NewSuite(opts)
	var specs []RunSpec
	for i, bench := range MicroBenches {
		specs = append(specs, RunSpec{Bench: bench, Pattern: workloads.All, Tx: i%2 == 0, Core: InOrder})
	}
	if err := s.Prefetch(specs); err != nil {
		t.Fatal(err)
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("progress callback overlapped %d times", n)
	}
}
