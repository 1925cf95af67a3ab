package harness

import (
	"runtime"
	"testing"

	"potgo/internal/workloads"
)

// TestRunFootprint gates what one simulation allocates. A RANDOM run maps
// 172 MiB of pools (a 48 MiB master and 31 of 4 MiB) and touches a few
// hundred pages of them; pool memory is demand-zero in both of its images, so
// the run pays for those pages, the page and POT tables and the machine
// model — not for the pools it maps (which used to cost 350 MiB up front).
func TestRunFootprint(t *testing.T) {
	spec := RunSpec{Bench: "LL", Pattern: workloads.Random, Opt: true, Tx: true, Ops: 20, Seed: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limitMiB = 32
	got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("%s at %d ops allocated %.1f MiB", spec.Label(), spec.Ops, got)
	if got > limitMiB {
		t.Errorf("allocated %.1f MiB, want <= %d MiB", got, limitMiB)
	}
}
