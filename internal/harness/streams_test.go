package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"potgo/internal/core"
	"potgo/internal/isa"
	"potgo/internal/polb"
	"potgo/internal/trace"
	"potgo/internal/workloads"
)

// streamHash is a trace.Consumer that folds every field of every
// instruction it is handed into an FNV-1a hash and counts the instructions.
type streamHash struct{ h, n uint64 }

func newStreamHash() *streamHash { return &streamHash{h: 14695981039346656037} }

func (s *streamHash) Consume(chunk []isa.Instr) {
	for i := range chunk {
		in := &chunk[i]
		var taken uint64
		if in.Taken {
			taken = 1
		}
		s.word(in.Addr)
		s.word(in.PC)
		s.word(uint64(in.Op) | uint64(in.Dst)<<8 | uint64(in.Src1)<<16 |
			uint64(in.Src2)<<24 | uint64(in.Size)<<32 | taken<<40)
	}
	s.n += uint64(len(chunk))
}

func (s *streamHash) word(v uint64) {
	for i := 0; i < 8; i++ {
		s.h ^= v & 0xff
		s.h *= 1099511628211
		v >>= 8
	}
}

// streamDigest is one emitted stream as the golden keeps it.
type streamDigest struct {
	Instructions uint64 `json:"instructions"`
	FNV          string `json:"fnv"`
}

func (s *streamHash) digest() streamDigest {
	return streamDigest{Instructions: s.n, FNV: fmt.Sprintf("%#016x", s.h)}
}

// streamSpecs are the emitted-stream families: every microbenchmark under
// EACH and RANDOM, in BASE and OPT, at a small deterministic scale.
func streamSpecs() []RunSpec {
	var specs []RunSpec
	for _, bench := range MicroBenches {
		for _, pat := range []workloads.Pattern{workloads.Each, workloads.Random} {
			for _, opt := range []bool{false, true} {
				specs = append(specs, RunSpec{Bench: bench, Pattern: pat, Opt: opt,
					Design: polb.Pipelined, Tx: true, Ops: 120, Seed: 6})
			}
		}
	}
	return specs
}

// timedStream runs sp on its timing model and digests the stream the model
// was handed. (An OPT run's stream differs from RunEmitted's: the POT takes
// address space, so the heap's regions map elsewhere.)
func timedStream(t *testing.T, sp RunSpec) streamDigest {
	t.Helper()
	ops, keyRange, err := sp.opsAndRange()
	if err != nil {
		t.Fatal(err)
	}
	tm, err := newTimedMachine(sp, RunObs{})
	if err != nil {
		t.Fatal(err)
	}
	h := newStreamHash()
	if _, _, err := runWorkload(sp, ops, keyRange, tm.as, tee{h, tm.model}, tm.potTable, tm.tr); err != nil {
		t.Fatalf("%s: %v", sp, err)
	}
	if _, err := tm.model.Result(); err != nil {
		t.Fatalf("%s: %v", sp, err)
	}
	return h.digest()
}

// TestStreamGolden pins the hash and length of the stream every family
// hands its timing model. The models see nothing else, so a change to the
// emitter or the library that claims to leave the streams alone must leave
// the file byte-identical.
func TestStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twenty-four small workloads")
	}
	got := map[string]streamDigest{}
	for _, sp := range streamSpecs() {
		got[sp.String()] = timedStream(t, sp)
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := streamGoldenPath
	if *updateGolden {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantData, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/harness -run TestStreamGolden -update` to create it)", err)
	}
	if bytes.Equal(data, wantData) {
		return
	}
	want := readStreamGolden(t)
	for name, d := range got {
		if w, ok := want[name]; !ok || d != w {
			t.Errorf("%s: got %+v, want %+v", name, d, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d streams, got %d", len(want), len(got))
	}
}

var streamGoldenPath = filepath.Join("testdata", "golden", "streams.json")

func readStreamGolden(t *testing.T) map[string]streamDigest {
	t.Helper()
	data, err := os.ReadFile(streamGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]streamDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", streamGoldenPath, err)
	}
	return want
}

// tee hands every chunk to both consumers.
type tee struct{ a, b trace.Consumer }

func (t tee) Consume(chunk []isa.Instr) {
	t.a.Consume(chunk)
	t.b.Consume(chunk)
}

// TestStreamIgnoresConsumerKnobs reruns each stream family once per knob
// that only the timing side reads (the core model, the POLB design, size
// and sets, the walk latency and kind, ideal translation and the
// prefetcher) and holds the stream its model was handed to the family's
// golden digest: the emitter's output depends on none of them.
func TestStreamIgnoresConsumerKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a hundred small simulations")
	}
	want := readStreamGolden(t)
	knobs := []func(*RunSpec){
		func(s *RunSpec) { s.Core = OutOfOrder },
		func(s *RunSpec) { s.Prefetch = true },
		func(s *RunSpec) { s.POLBSize = 8 },
		func(s *RunSpec) { s.POLBSets = 4 },
		func(s *RunSpec) { s.POTWalk = core.ZeroWalk },
		func(s *RunSpec) { s.ProbeWalk = true },
		func(s *RunSpec) { s.Design = polb.Parallel },
		func(s *RunSpec) { s.Ideal = true },
	}
	for _, family := range streamSpecs() {
		w, ok := want[family.String()]
		if !ok {
			t.Fatalf("%s: not in %s", family, streamGoldenPath)
		}
		for _, knob := range knobs {
			sp := family
			knob(&sp)
			if sp.check() != nil {
				continue // an OPT-only knob on a BASE family
			}
			if got := timedStream(t, sp); got != w {
				t.Errorf("%s: timed stream %+v, family %s emits %+v", sp, got, family, w)
			}
		}
	}
}
