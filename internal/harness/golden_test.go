package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"potgo/internal/cpu"
	"potgo/internal/polb"
	"potgo/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden experiment snapshots")

// goldenTol is the relative tolerance for golden comparisons. The simulator
// is deterministic — a given spec produces bit-identical results — so the
// tolerance only absorbs floating-point reassociation from refactors that
// change summation order, not real behavioural drift.
const goldenTol = 1e-9

// goldenExperiments are the snapshotted evaluation results: Table 2
// (oid_direct cost), Figures 9(a)/9(b) (speedups on both core models) and
// Table 8 (POLB miss rates).
var goldenExperiments = []string{"table2", "fig9a", "fig9b", "table8"}

// TestGoldenNumbers locks every headline value of the snapshotted
// experiments at a small deterministic scale. Any change to the timing
// models, the library's emitted code, the workloads or the aggregation
// shows up as a numeric diff here; rerun with -update (and review the diff)
// when the change is intended.
func TestGoldenNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full (small-scale) experiment grid")
	}
	s := NewSuite(Options{Seed: 6, Ops: 60, SkipTPCC: true})
	for _, id := range goldenExperiments {
		t.Run(id, func(t *testing.T) {
			rep, err := s.RunExperiment(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			path := filepath.Join("testdata", "golden", id+".json")
			if *updateGolden {
				writeGolden(t, path, rep.Values)
				return
			}
			want := readGolden(t, path)
			compareGolden(t, rep.Values, want)
		})
	}
}

// goldenResultSpecs are the sim_grid machine configurations (in-order BASE,
// Pipelined and Parallel OPT; out-of-order BASE and Pipelined OPT) on LL and
// BT under EACH and RANDOM.
func goldenResultSpecs() []RunSpec {
	configs := []RunSpec{
		{Core: InOrder},
		{Core: InOrder, Opt: true, Design: polb.Pipelined},
		{Core: InOrder, Opt: true, Design: polb.Parallel},
		{Core: OutOfOrder},
		{Core: OutOfOrder, Opt: true, Design: polb.Pipelined},
	}
	var specs []RunSpec
	for _, bench := range []string{"LL", "BT"} {
		for _, pat := range []workloads.Pattern{workloads.Each, workloads.Random} {
			for _, c := range configs {
				c.Bench, c.Pattern, c.Tx, c.Ops, c.Seed = bench, pat, true, 300, 6
				specs = append(specs, c)
			}
		}
	}
	return specs
}

// TestGoldenResults pins every counter of every run, not just the ratios the
// experiment goldens keep: cycles, instructions, the mix, branch counters,
// each stall bucket and the memory, translation and POLB statistics. The
// file must stay byte-identical across any change that claims not to move a
// simulated number.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twenty small simulations")
	}
	got := map[string]cpu.Result{}
	for _, sp := range goldenResultSpecs() {
		r, err := Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		got[sp.Label()] = r.CPU
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "golden", "results.json")
	if *updateGolden {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantData, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/harness -run TestGoldenResults -update` to create it)", err)
	}
	if bytes.Equal(data, wantData) {
		return
	}
	var want map[string]cpu.Result
	if err := json.Unmarshal(wantData, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for label, r := range got {
		if w, ok := want[label]; !ok || r != w {
			// The conversions print every field, not Result's summary.
			type fields cpu.Result
			t.Errorf("%s:\n got  %+v\n want %+v", label, fields(r), fields(w))
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d runs, got %d", len(want), len(got))
	}
}

func writeGolden(t *testing.T, path string, values map[string]float64) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(values, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d values)", path, len(values))
}

func readGolden(t *testing.T, path string) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/harness -run TestGoldenNumbers -update` to create it)", err)
	}
	var want map[string]float64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return want
}

func compareGolden(t *testing.T, got, want map[string]float64) {
	t.Helper()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("missing value %q (golden has %v)", k, want[k])
			continue
		}
		if !withinTol(g, want[k]) {
			t.Errorf("%s = %v, golden %v (rel drift %.3g > %g)",
				k, g, want[k], relDiff(g, want[k]), goldenTol)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("new value %q = %v not in golden (rerun with -update)", k, got[k])
		}
	}
}

func withinTol(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) == math.IsNaN(want)
	}
	return relDiff(got, want) <= goldenTol
}

func relDiff(got, want float64) float64 {
	d := math.Abs(got - want)
	if scale := math.Max(math.Abs(got), math.Abs(want)); scale > 1 {
		return d / scale
	}
	return d
}
