package harness

import (
	"runtime"
	"testing"

	"potgo/internal/workloads"
)

// TestRunFootprint gates what one simulation allocates. A RANDOM run maps
// 172 MiB of pools (a 48 MiB master and 31 of 4 MiB) and touches a few
// hundred pages of them; pool memory is demand-zero in both of its images, so
// the run pays for those pages, the POT, twelve bytes of page-table entry
// and page slot per mapped page and the machine model — not for the pools it maps (which used
// to cost 350 MiB up front).
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

// TestRunFootprintEach gates what a run pays per pool. BST/EACH puts every
// node in a pool of its own, scattered at random over the mmap arena. A pool
// costs its own page-table entries and the pages the run writes in it, not
// page-table structure for the 32 MB of arena around it.
func TestRunFootprintEach(t *testing.T) {
	spec := RunSpec{Bench: "BST", Pattern: workloads.Each, Opt: true, Tx: true, Ops: 1000, Seed: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limitKiB = 32
	got := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(res.Pools)
	t.Logf("%s at %d ops created %d pools and allocated %.1f KiB per pool", spec.Label(), spec.Ops, res.Pools, got)
	if got > limitKiB {
		t.Errorf("allocated %.1f KiB per pool, want <= %d KiB", got, limitKiB)
	}
}
