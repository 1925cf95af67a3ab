package crashtest

import (
	"strings"
	"testing"

	"potgo/internal/nvmsim"
)

func smokeOptions() Options {
	opt := Default(Sweep)
	opt.Ops = 10
	opt.Points = 16
	return opt
}

// TestAllTargetsSurviveSmoke is the engine's core claim: every built-in
// target — five persistent structures, the allocator, the durable TPC-C
// mix — survives crash injection at sampled persistence events under the
// drop-all and torn-line adversaries.
func TestAllTargetsSurviveSmoke(t *testing.T) {
	for _, tg := range Targets(3) {
		tg := tg
		t.Run(tg.Name(), func(t *testing.T) {
			opt := smokeOptions()
			opt.Seed = 3
			if tg.Name() == "tpcc" {
				opt.Ops = 8
				opt.Points = 8
			}
			sum, err := RunTarget(tg, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(sum.Failures) != 0 {
				f := sum.Failures[0]
				t.Fatalf("failure at %s: %s (min lost %v)", f.ReplayToken(), f.Err, f.MinLost)
			}
			if sum.Cases == 0 {
				t.Fatal("no cases ran")
			}
			if sum.Span == 0 {
				t.Fatal("no event span")
			}
		})
	}
}

// TestKeepRandomPolicySweep runs one tree under the keep-random adversary,
// which exercises survivor subsets the other two policies don't.
func TestKeepRandomPolicySweep(t *testing.T) {
	tg, err := TargetByName("bplus", 5)
	if err != nil {
		t.Fatal(err)
	}
	opt := smokeOptions()
	opt.Seed = 5
	opt.Policies = []nvmsim.Kind{nvmsim.KeepRandom}
	sum, err := RunTarget(tg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) != 0 {
		t.Fatalf("failure at %s: %s", sum.Failures[0].ReplayToken(), sum.Failures[0].Err)
	}
}

// TestMutationIsCaught proves the engine has teeth: weakening the
// durability plumbing (dropping every cache-line write-back, the moral
// equivalent of deleting the Persist calls from a structure, or every
// store fence) must produce a failure with a working deterministic replay
// token and a minimized counterexample, within the smoke budget.
func TestMutationIsCaught(t *testing.T) {
	for _, m := range []Mutation{DropCLWB, DropFence} {
		t.Run(string(m), func(t *testing.T) {
			tg, err := TargetByName("rbt", 9)
			if err != nil {
				t.Fatal(err)
			}
			opt := smokeOptions()
			opt.Seed = 9
			opt.Ops = 12
			opt.Points = 32
			opt.Mutation = m
			sum, err := RunTarget(tg, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(sum.Failures) == 0 {
				t.Fatalf("%s and the campaign still passed (%d cases over %d events)", m, sum.Cases, sum.Span)
			}
			f := sum.Failures[0]

			// The replay token parses and reproduces the identical failure.
			name, event, keep, err := ParseReplayToken(f.ReplayToken())
			if err != nil {
				t.Fatal(err)
			}
			if name != "rbt" || event != f.Event {
				t.Fatalf("token %q round-tripped to (%s, %d)", f.ReplayToken(), name, event)
			}
			rerr := Replay(tg, opt, event, keep)
			if rerr == nil {
				t.Fatalf("replay of %s passed", f.ReplayToken())
			}
			if rerr.Error() != f.Err {
				t.Fatalf("replay error %q differs from recorded %q", rerr, f.Err)
			}

			// Without the mutation, the same case passes: the failure was the
			// injected bug, not the engine.
			clean := opt
			clean.Mutation = ""
			if err := Replay(tg, clean, event, keep); err != nil {
				// The survivor set was recorded under mutated event numbering, so
				// an unmutated replay may crash elsewhere — only a clean campaign
				// is meaningful evidence here.
				sum2, err2 := RunTarget(tg, clean)
				if err2 != nil {
					t.Fatal(err2)
				}
				if len(sum2.Failures) != 0 {
					t.Fatalf("unmutated campaign fails too: %s", sum2.Failures[0].Err)
				}
			}
		})
	}
}

// TestMinimizationShrinks checks that a minimized counterexample is
// reported and is no larger than the full dropped set.
func TestMinimizationShrinks(t *testing.T) {
	tg, err := TargetByName("list", 13)
	if err != nil {
		t.Fatal(err)
	}
	opt := smokeOptions()
	opt.Seed = 13
	opt.Points = 24
	opt.Mutation = DropCLWB
	sum, err := RunTarget(tg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) == 0 {
		t.Skip("no failure found at these points; mutation sweep covered elsewhere")
	}
	f := sum.Failures[0]
	if f.Dropped <= minimizeLimit {
		if len(f.MinLost) == 0 {
			t.Fatalf("failure lost %d lines but minimization found none essential", f.Dropped)
		}
		for _, ln := range f.MinLost {
			if !strings.Contains(ln, ":") || !strings.Contains(ln, "/") {
				t.Fatalf("malformed minimized line %q", ln)
			}
		}
	}
}

// TestReplayTokenParse covers the token grammar's edges.
func TestReplayTokenParse(t *testing.T) {
	f := Failure{Target: "bst", Event: 412, Kept: "none"}
	name, ev, keep, err := ParseReplayToken(f.ReplayToken())
	if err != nil || name != "bst" || ev != 412 || len(keep) != 0 {
		t.Fatalf("round trip: %v %v %v %v", name, ev, keep, err)
	}
	f.Kept = "1:0x40/ff,1:0x80/0f"
	_, _, keep, err = ParseReplayToken(f.ReplayToken())
	if err != nil || len(keep) != 2 {
		t.Fatalf("kept round trip: %v %v", keep, err)
	}
	for _, bad := range []string{"", "bst", "bst@x#none", "@4#none"} {
		if _, _, _, err := ParseReplayToken(bad); err == nil {
			t.Errorf("token %q parsed", bad)
		}
	}
}

// TestDeterminism: the same options give byte-identical summaries.
func TestDeterminism(t *testing.T) {
	tg, err := TargetByName("btree", 21)
	if err != nil {
		t.Fatal(err)
	}
	opt := smokeOptions()
	opt.Seed = 21
	opt.Points = 8
	a, err := RunTarget(tg, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTarget(tg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Span != b.Span || a.Cases != b.Cases || a.Points != b.Points {
		t.Fatalf("non-deterministic campaign: %+v vs %+v", a, b)
	}
}
