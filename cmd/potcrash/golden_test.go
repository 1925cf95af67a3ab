package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"potgo/internal/crashtest"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current tree")

// TestCampaignGolden pins the -json summaries of CI's two sequential crash
// campaigns (the all-structures smoke and the drop-CLWB mutation) and of a
// durable TPC-C campaign, minus wall_seconds. Every event_span, crash point, case count and failure
// (event index, kept lines, minimal counterexample) is a function of where
// the persistence domain numbers its Store, CLWB and SFENCE events and of
// what each one does, so a change to the persistence path that leaves them
// all alone reproduces these files byte for byte.
func TestCampaignGolden(t *testing.T) {
	cases := []struct {
		golden   string
		targets  string
		ops      int
		points   int
		dropCLWB int
	}{
		// potcrash -targets list,bst,rbt,btree,bplus,alloc -ops 10 -points 16
		{"smoke.json", "list,bst,rbt,btree,bplus,alloc", 10, 16, 0},
		// potcrash -targets rbt -ops 12 -points 32 -mutate-drop-clwb 1
		{"drop_clwb.json", "rbt", 12, 32, 1},
		// potcrash -targets tpcc -ops 6 -points 16
		{"tpcc.json", "tpcc", 6, 16, 0},
	}
	for _, c := range cases {
		t.Run(strings.TrimSuffix(c.golden, ".json"), func(t *testing.T) {
			opt := crashtest.DefaultOptions()
			opt.Ops, opt.MaxPoints = c.ops, c.points
			opt.Mutate.DropCLWBEveryN = c.dropCLWB
			targets, err := selectTargets(c.targets, opt.Seed)
			if err != nil {
				t.Fatal(err)
			}
			var sums []crashtest.Summary
			for _, tg := range targets {
				sum, err := crashtest.RunTarget(tg, opt)
				if err != nil {
					t.Fatal(err)
				}
				sums = append(sums, sum)
			}
			var polNames []string
			for _, k := range opt.Policies {
				polNames = append(polNames, k.String())
			}
			raw, err := json.Marshal(campaign{Options: opt, Policies: polNames, Summaries: sums})
			if err != nil {
				t.Fatal(err)
			}
			got := canonicalSummary(t, raw)
			path := filepath.Join("testdata", "golden", c.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("campaign summary differs from %s (rerun with -update only if the event stream was meant to change)\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// canonicalSummary drops the run's wall time from a -json document and
// re-renders it with sorted keys, so a golden compares only what is
// deterministic.
func canonicalSummary(t *testing.T, raw []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "wall_seconds")
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}
