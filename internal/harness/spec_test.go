package harness

import (
	"math/rand"
	"strings"
	"testing"

	"potgo/internal/polb"
	"potgo/internal/workloads"
)

// randomSpec draws every RunSpec field over its domain, contradictory
// combinations included.
func randomSpec(rng *rand.Rand) RunSpec {
	benches := append(append([]string{}, MicroBenches...), TPCCBench)
	flip := func() bool { return rng.Intn(2) == 0 }
	count := func() int64 { // zero half the time, else small or large
		if flip() {
			return 0
		}
		if flip() {
			return 1 + rng.Int63n(300)
		}
		return rng.Int63()
	}
	sign := func(v int64) int64 {
		if flip() {
			return -v
		}
		return v
	}
	return RunSpec{
		Bench:      benches[rng.Intn(len(benches))],
		Pattern:    workloads.Pattern(rng.Intn(3)),
		Opt:        flip(),
		FixedMap:   rng.Intn(4) == 0,
		Tx:         flip(),
		FT:         flip(),
		Core:       CoreKind(rng.Intn(2)),
		Design:     polb.Design(rng.Intn(2)),
		POLBSize:   int(sign(count())),
		POTWalk:    []int64{0, -1, 30, count()}[rng.Intn(4)],
		POLBSets:   int(count()),
		POTEntries: int(count()),
		ProbeWalk:  flip(),
		Prefetch:   flip(),
		Ideal:      flip(),
		Ops:        int(count()),
		Seed:       sign(count()),
		TPCC:       flip(),
	}
}

// TestSpecRoundTrip checks ParseSpec(s.String()) == s for every spec Run
// accepts. Round-tripping makes String injective on the specs Run accepts,
// which is what the Suite's cache keys rely on; the map below checks that
// directly as well.
func TestSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names := map[string]RunSpec{}
	valid := 0
	for i := 0; i < 20000; i++ {
		s := randomSpec(rng)
		if s.check() != nil {
			continue
		}
		valid++
		name := s.String()
		got, err := ParseSpec(name)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if got != s {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", name, got, s)
		}
		if prev, ok := names[name]; ok && prev != s {
			t.Fatalf("%+v and %+v are both named %q", prev, s, name)
		}
		names[name] = s
	}
	if valid < 2000 {
		t.Fatalf("only %d of the drawn specs were valid", valid)
	}
}

func TestSpecString(t *testing.T) {
	s := RunSpec{Bench: "LL", Pattern: workloads.Random, Opt: true, Tx: true, Core: InOrder, Ops: 500, Seed: 1}
	if got, want := s.String(), "LL/RANDOM/OPT/Pipelined/in-order:ops=500:seed=1"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	s = RunSpec{Bench: TPCCBench, Pattern: workloads.Each, Opt: true, Design: polb.Parallel, Ideal: true,
		FT: true, Core: OutOfOrder, POLBSize: -1, POLBSets: 4, POTWalk: -1, POTEntries: 64,
		ProbeWalk: true, Prefetch: true, Ops: 9, Seed: -3, TPCC: true}
	want := "TPCC/EACH/OPT/Parallel/ideal_NTX_FT/out-of-order" +
		":polb=-1:sets=4:walk=-1:pot=64:probe=true:prefetch=true:ops=9:seed=-3:tpcc=test"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, tc := range []struct{ in, why string }{
		{"", "unknown label"},
		{"NOPE/ALL/BASE/in-order", "unknown label"},
		{"ll/ALL/BASE/in-order", "unknown label"},
		{"LL/all/BASE/in-order", "unknown label"},
		{"LL/ALL/BASE/inorder", "unknown label"},
		{"LL/ALL/BASE/ideal/in-order", "unknown label"},
		{"LL/ALL/OPT/FIXED/in-order", "unknown label"},
		{"LL/ALL/FIXED/Pipelined/in-order", "unknown label"},
		{"LL/ALL/OPT/pipelined/in-order", "unknown label"},
		{"LL/ALL/OPT/Pipelined/real/in-order", "unknown label"},
		{"LL/ALL/BASE_FT_NTX/in-order", "unknown label"},
		{"LL/ALL/BASE/in-order/", "unknown label"},
		{"LL/ALL/BASE/in-order:color=red", "unknown key"},
		{"LL/ALL/BASE/in-order:ops=5:ops=5", "duplicate key"},
		{"LL/ALL/BASE/in-order:ops=five", "invalid syntax"},
		{"LL/ALL/BASE/in-order:ops=99999999999999999999", "out of range"},
		{"LL/ALL/BASE/in-order:probe=yes", "the only value"},
		{"LL/ALL/BASE/in-order:tpcc=test", "needs the TPCC benchmark"},
		{"LL/ALL/BASE/in-order:ops=-5", "must not be negative"},
		{"LL/ALL/OPT/Pipelined/in-order:walk=-2", "walk must be"},
		{"LL/ALL/BASE/in-order:seed=1:ops=5", "canonical"},
		{"LL/ALL/BASE/in-order:ops=05", "canonical"},
		{"LL/ALL/BASE/in-order:ops=0", "canonical"},
		{"LL/ALL/BASE/in-order:", "unknown key"},
	} {
		if _, err := ParseSpec(tc.in); err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("ParseSpec(%q) = %v, want an error containing %q", tc.in, err, tc.why)
		}
	}
}

func TestRunRejectsContradictions(t *testing.T) {
	for _, s := range []RunSpec{
		{Bench: "LL", Tx: true, Opt: true, FixedMap: true, Ops: 5},
		{Bench: "LL", Tx: true, Ideal: true, Ops: 5},
		{Bench: "LL", Tx: true, TPCC: true, Ops: 5},
		{Bench: "LL", Tx: true, Design: polb.Parallel, Ops: 5},
	} {
		if _, err := Run(s); err == nil {
			t.Errorf("Run(%+v) succeeded", s)
		}
	}
}

// FuzzParseSpec checks that the parser never panics and that every input
// it accepts is already the canonical name of the spec it parses to.
func FuzzParseSpec(f *testing.F) {
	f.Add("LL/RANDOM/OPT/Pipelined/in-order:ops=500:seed=1")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		if got := s.String(); got != in {
			t.Fatalf("ParseSpec(%q) re-renders as %q", in, got)
		}
	})
}
