package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"potgo/internal/crashtest"
	"potgo/internal/nvmsim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current tree")

// TestCampaignGolden pins the -json summaries, minus wall_seconds, of CI's
// two sequential crash campaigns (the all-structures smoke and the
// drop-CLWB mutation), of a durable TPC-C sweep and of the crash-mid-scrub
// repair campaign — the one whole-world campaign that is deterministic.
// Every event_span, crash point, case count and failure (event index, kept
// lines, minimal counterexample), and every round the repair campaign
// fires, is a function of where the persistence domain numbers its Store,
// CLWB and SFENCE events and of what each one does, so a change to the
// persistence path or to the point loop that leaves them all alone
// reproduces these files byte for byte.
func TestCampaignGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   string // the potcrash command line
	}{
		{"smoke.json", "-targets list,bst,rbt,btree,bplus,alloc -ops 10 -points 16"},
		{"drop_clwb.json", "-targets rbt -ops 12 -points 32 -mutate drop-clwb"},
		{"tpcc.json", "-targets tpcc -ops 6 -points 16"},
		{"repair_scrub.json", "-campaign repair -corrupt-k 3 -scrub -points 8 -ops 12 -policies drop-all,keep-random,torn"},
	}
	for _, c := range cases {
		t.Run(strings.TrimSuffix(c.golden, ".json"), func(t *testing.T) {
			cfg, err := parseArgs(strings.Fields(c.args))
			if err != nil {
				t.Fatal(err)
			}
			doc, _, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(doc)
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

// TestFlagsStartFromCampaignDefaults: -campaign K alone runs exactly
// crashtest.Default(K), a set flag changes only its own field, and a flag
// K does not read is rejected.
func TestFlagsStartFromCampaignDefaults(t *testing.T) {
	for _, c := range []crashtest.Campaign{crashtest.Sweep, crashtest.MVCC, crashtest.Cluster, crashtest.Repair} {
		cfg, err := parseArgs([]string{"-campaign", string(c)})
		if err != nil {
			t.Fatalf("-campaign %s: %v", c, err)
		}
		if want := crashtest.Default(c); !reflect.DeepEqual(cfg.opt, want) {
			t.Errorf("-campaign %s runs %+v, want its defaults %+v", c, cfg.opt, want)
		}
	}
	cfg, err := parseArgs([]string{"-campaign", "cluster", "-points", "2", "-policies", "torn"})
	if err != nil {
		t.Fatal(err)
	}
	want := crashtest.Default(crashtest.Cluster)
	want.Points, want.Policies = 2, []nvmsim.Kind{nvmsim.Torn}
	if !reflect.DeepEqual(cfg.opt, want) {
		t.Errorf("-points 2 -policies torn ran %+v, want %+v", cfg.opt, want)
	}
	for _, args := range []string{
		"-campaign mvcc -nodes 5",
		"-campaign cluster -targets rbt",
		"-campaign repair -progress 1s",
		"-campaign mvcc -scrub",
		"-corrupt-k 4",
		"-campaign cluster -mutate stale-read",
		"-mutate no-such-bug",
		"-campaign fork",
		"-campaign cluster -nodes 2",
		"-policies drop-all,nope",
	} {
		if _, err := parseArgs(strings.Fields(args)); err == nil {
			t.Errorf("potcrash %s: accepted", args)
		}
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
