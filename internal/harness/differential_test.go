package harness

import (
	"bytes"
	"fmt"
	"testing"

	"potgo/internal/emit"
	"potgo/internal/pmem"
	"potgo/internal/polb"
	"potgo/internal/tpcc"
	"potgo/internal/trace"
	"potgo/internal/vm"
	"potgo/internal/workloads"
)

// assertDumpsEqual requires two final-pool-contents dumps to be
// byte-identical. Pool contents are position-independent — object references
// are stored as OIDs, never virtual addresses — so translation mode must not
// leak into durable state.
func assertDumpsEqual(t *testing.T, baseDump, optDump map[string][]byte) {
	t.Helper()
	if len(baseDump) != len(optDump) {
		t.Fatalf("pool count differs: BASE has %d, OPT has %d", len(baseDump), len(optDump))
	}
	for name, bb := range baseDump {
		ob, ok := optDump[name]
		if !ok {
			t.Errorf("pool %q exists under BASE but not OPT", name)
			continue
		}
		if !bytes.Equal(bb, ob) {
			i := 0
			for i < len(bb) && i < len(ob) && bb[i] == ob[i] {
				i++
			}
			t.Errorf("pool %q: durable bytes diverge at offset %d (len %d vs %d)",
				name, i, len(bb), len(ob))
		}
	}
}

// TestDifferentialBaseVsOpt runs every Table 5 (workload × pattern) cell
// functionally under BASE and OPT and asserts the two modes are functionally
// indistinguishable: same workload checksum and byte-exact final pool
// contents. Hardware translation must change timing only, never state.
func TestDifferentialBaseVsOpt(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full workload × pattern differential grid")
	}
	patterns := []workloads.Pattern{workloads.All, workloads.Each, workloads.Random}
	for _, bench := range MicroBenches {
		for _, pat := range patterns {
			t.Run(fmt.Sprintf("%s/%s", bench, pat), func(t *testing.T) {
				base := RunSpec{Bench: bench, Pattern: pat, Tx: true, Ops: 40, Seed: 3}
				opt := base
				opt.Opt = true
				opt.Design = polb.Pipelined

				baseRes, baseDump, err := functionalDump(base)
				if err != nil {
					t.Fatalf("BASE: %v", err)
				}
				optRes, optDump, err := functionalDump(opt)
				if err != nil {
					t.Fatalf("OPT: %v", err)
				}
				if baseRes.Checksum != optRes.Checksum {
					t.Errorf("checksum mismatch: BASE %#x, OPT %#x", baseRes.Checksum, optRes.Checksum)
				}
				if len(baseDump) == 0 {
					t.Fatal("BASE run created no pools")
				}
				assertDumpsEqual(t, baseDump, optDump)
			})
		}
	}
}

// TestDifferentialTPCC is the TPC-C arm of the differential test: both
// placements, BASE vs OPT, byte-exact pools plus the database's own
// consistency verifier (the model of what a committed transaction mix must
// leave behind) in each mode.
func TestDifferentialTPCC(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four TPC-C mixes")
	}
	const seed, ops = 3, 60
	for _, pc := range []struct {
		name  string
		place tpcc.Placement
	}{
		{"ALL", tpcc.PlaceAll},
		{"EACH", tpcc.PlaceEach},
	} {
		t.Run(pc.name, func(t *testing.T) {
			baseDump, baseStats := runTPCCFunctional(t, emit.Base, pc.place, seed, ops)
			optDump, optStats := runTPCCFunctional(t, emit.Opt, pc.place, seed, ops)
			if baseStats != optStats {
				t.Errorf("transaction stats diverge: BASE %+v, OPT %+v", baseStats, optStats)
			}
			assertDumpsEqual(t, baseDump, optDump)
		})
	}
}

// runTPCCFunctional populates a down-scaled TPC-C database in the given
// translation mode, runs the transaction mix, verifies consistency, and
// returns the synced durable pool bytes plus the mix statistics.
func runTPCCFunctional(t *testing.T, mode emit.Mode, place tpcc.Placement, seed int64, ops int) (map[string][]byte, tpcc.Stats) {
	t.Helper()
	as := vm.NewAddressSpace(seed ^ 0x5eed)
	em := emit.New(trace.Discard{}, mode)
	var soft *emit.SoftTranslator
	var err error
	if mode == emit.Base {
		if soft, err = emit.NewSoftTranslator(em, as, 1024); err != nil {
			t.Fatal(err)
		}
	}
	h, err := pmem.NewHeap(as, pmem.NewStore(), em, soft)
	if err != nil {
		t.Fatal(err)
	}
	db, err := tpcc.NewDB(h, tpcc.TestConfig(seed), place)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RunMix(ops); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckConsistency(); err != nil {
		t.Errorf("%v mode: consistency check: %v", mode, err)
	}
	if err := h.SyncAll(); err != nil {
		t.Fatal(err)
	}
	return h.Store.DumpBytes(), db.Stats()
}

// functionalDump executes the workload functionally and returns, along with
// the result, a copy of the final durable pool bytes after a full sync.
// Pool contents are position-independent (object references are stored as
// OIDs, never as virtual addresses), so two runs of the same workload under
// different translation modes must dump byte-identical pools — the
// differential-test invariant.
func functionalDump(spec RunSpec) (RunResult, map[string][]byte, error) {
	out, h, err := runFunctional(spec, trace.Discard{})
	if err != nil {
		return out, nil, err
	}
	if err := h.SyncAll(); err != nil {
		return out, nil, err
	}
	return out, h.Store.DumpBytes(), nil
}
