package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is written from the catalogue (go run . -benchmark-json >
// ../BENCHMARK.json); the two must not drift apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Errorf("../BENCHMARK.json differs from the catalogue; regenerate it with: go run . -benchmark-json > ../BENCHMARK.json")
	}
}

func TestCatalogueMeetsTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q (unit %q) is outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range driverEndToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 || d.Workloads != nil {
			t.Errorf("end-to-end metric %s: bound %g, workloads %v", d.Name, d.Bound, d.Workloads)
		}
		if d.Bound > driverEndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	if d := driverEndToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s is declared as %+v", d)
	}
	for _, d := range driverPerLayer {
		check(d)
	}
	if n := len(driverPerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
	if len(endToEnd) != 10 || len(driverEndToEnd) != 5 || len(workloadNames) != 4 {
		t.Errorf("%d end-to-end metrics (%d for the driver) over %d workloads, want 10 (5) over 4",
			len(endToEnd), len(driverEndToEnd), len(workloadNames))
	}
	for _, w := range workloadNames {
		if why := workloadWhy[w]; why == "" || len(why) > 200 {
			t.Errorf("workload %s: why is %d characters", w, len(why))
		}
	}
}

// README.md is the catalogue for people: it must name every metric, every
// workload and every layer.
func TestReadmeNamesEverything(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	has := func(s string) bool { return bytes.Contains(readme, []byte("`"+s+"`")) }
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !has(d.Name) {
			t.Errorf("README.md does not mention metric `%s`", d.Name)
		}
	}
	for _, w := range workloadNames {
		if !has(w) {
			t.Errorf("README.md does not mention workload `%s`", w)
		}
	}
	for _, l := range layerNames {
		if !has(l) {
			t.Errorf("README.md does not mention layer `%s`", l)
		}
	}
}
