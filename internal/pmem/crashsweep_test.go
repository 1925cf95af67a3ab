package pmem

import (
	"bytes"
	"fmt"
	"testing"

	"potgo/internal/isa"
	"potgo/internal/nvmsim"
	"potgo/internal/oid"
	"potgo/internal/vm"
)

// Instruction-granular crash sweep: unlike crashpoint_test.go, which cuts
// the scripted transaction at API-call boundaries, this sweep arms the
// nvmsim domain to crash before *every single* persistent-memory event
// (store, CLWB, SFENCE) the transaction produces, under both the drop-all
// and the torn-line adversary. After each crash a fresh process recovers
// and the durable state must be exactly the pre-transaction state or
// exactly the committed state — nothing in between survives an
// instruction-granular adversary only if every persist and fence is in
// the right place.

// sweepWorld builds the standard three-object world used by txScript with
// a durable (synced) setup phase, returning everything needed to crash and
// reattach.
func sweepWorld(t *testing.T, seed int64) (*vm.AddressSpace, *Store, *Heap, *Pool, [3]oid.OID) {
	t.Helper()
	as := vm.NewAddressSpace(seed)
	store := NewStore()
	h := freshHeap(t, as, store)
	p, err := h.Create("cp", 256*1024)
	if err != nil {
		t.Fatal(err)
	}
	var objs [3]oid.OID
	for i := range objs {
		if objs[i], err = h.Alloc(p, 16); err != nil {
			t.Fatal(err)
		}
		ref, err := h.Deref(objs[i], isa.RZ)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Store64(0, uint64(100+i), isa.RZ); err != nil {
			t.Fatal(err)
		}
		if err := ref.Store64(8, uint64(200+i), isa.RZ); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.SyncPool(p); err != nil {
		t.Fatal(err)
	}
	return as, store, h, p, objs
}

// runArmed runs fn with the domain armed at event `at` and reports whether
// the crash fired.
func runArmed(h *Heap, at uint64, fn func() error) (crashed bool, err error) {
	h.NV.Arm(at)
	defer h.NV.Disarm()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := nvmsim.AsCrashSignal(r); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	return false, fn()
}

// checkSweepOutcome asserts the recovered heap holds exactly the
// pre-transaction or exactly the committed state of txScript.
func checkSweepOutcome(label string, h *Heap, p *Pool, objs [3]oid.OID) error {
	read := func(o oid.OID, off uint32) uint64 {
		ref, err := h.Deref(o, isa.RZ)
		if err != nil {
			panic(err)
		}
		w, err := ref.Load64(off)
		if err != nil {
			panic(err)
		}
		return w.V
	}
	a0, a8 := read(objs[0], 0), read(objs[0], 8)
	b0, b8 := read(objs[1], 0), read(objs[1], 8)
	switch {
	case a0 == 100 && a8 == 200:
		// Pre-state: the whole transaction must have vanished.
		if b0 != 101 || b8 != 201 {
			return fmt.Errorf("%s: torn atomicity: objs[0] rolled back but objs[1] = (%d,%d)", label, b0, b8)
		}
		if c0, c8 := read(objs[2], 0), read(objs[2], 8); c0 != 102 || c8 != 202 {
			return fmt.Errorf("%s: uncommitted free touched the victim: (%d,%d)", label, c0, c8)
		}
		// The free intent must not have leaked onto the free list.
		o, err := h.Alloc(p, 16)
		if err != nil {
			return err
		}
		if o == objs[2] {
			return fmt.Errorf("%s: uncommitted free was applied", label)
		}
	case a0 == 1111 && a8 == 3333:
		// Committed state: every effect must be present.
		if b0 != 101 || b8 != 2222 {
			return fmt.Errorf("%s: committed tx half-applied: objs[1] = (%d,%d)", label, b0, b8)
		}
		// The committed free is durable: the block comes back first.
		o, err := h.Alloc(p, 16)
		if err != nil {
			return err
		}
		if o != objs[2] {
			return fmt.Errorf("%s: committed free lost: alloc = %v, want %v", label, o, objs[2])
		}
	default:
		return fmt.Errorf("%s: objs[0] = (%d,%d): neither pre (100,200) nor committed (1111,3333) state", label, a0, a8)
	}
	return nil
}

func TestExhaustiveEventSweep(t *testing.T) {
	// Dry run: find the event span of the scripted transaction.
	_, _, h, p, objs := sweepWorld(t, 42)
	e0 := h.NV.Events()
	if _, err := txScript(h, p, objs, -1); err != nil {
		t.Fatal(err)
	}
	e1 := h.NV.Events()
	if e1-e0 < 50 {
		t.Fatalf("suspiciously short event span %d..%d", e0, e1)
	}

	for _, kind := range []nvmsim.Kind{nvmsim.DropAll, nvmsim.Torn} {
		for e := e0; e < e1; e++ {
			label := fmt.Sprintf("%v@%d", kind, e)
			as, store, h, p, objs := sweepWorld(t, 42)
			pol := nvmsim.DropAllPolicy()
			if kind == nvmsim.Torn {
				pol = nvmsim.TornPolicy(e) // a fresh tear pattern per point
			}
			crashed, err := runArmed(h, e, func() error {
				_, err := txScript(h, p, objs, -1)
				return err
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !crashed {
				t.Fatalf("%s: armed event never reached (span drifted?)", label)
			}
			rep, err := h.Crash(pol)
			if err != nil {
				t.Fatal(err)
			}

			h2 := freshHeap(t, as, store)
			p2, err := h2.Open("cp")
			if err != nil {
				t.Fatal(err)
			}
			if err := h2.Recover(p2); err != nil {
				t.Fatalf("%s (kept %s): recover: %v", label, rep.KeptString(), err)
			}
			if h2.NeedsRecovery(p2) {
				t.Fatalf("%s: pool still dirty after recovery", label)
			}
			if err := h2.CheckPool(p2); err != nil {
				t.Fatalf("%s (kept %s): %v", label, rep.KeptString(), err)
			}
			if err := checkSweepOutcome(label, h2, p2, objs); err != nil {
				t.Errorf("%v (kept %s)", err, rep.KeptString())
			}
		}
	}
}

// durableSnapshot copies the pool's durable backing bytes (only valid when
// no process has it mapped, i.e. right after a crash).
func durableSnapshot(t *testing.T, store *Store, name string) []byte {
	t.Helper()
	b, err := store.lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return b.bytes()
}

// TestRecoverIdempotence: recovery must converge to the same durable bytes
// whether it runs once, twice, or is itself interrupted by a crash at any
// event and re-run. Without this, a second power loss during recovery —
// the common case in a crashing machine — could corrupt what the first
// recovery was about to repair.
func TestRecoverIdempotence(t *testing.T) {
	// Dry run: event span of the transaction script.
	_, _, hd, pd, objsd := sweepWorld(t, 42)
	e0 := hd.NV.Events()
	if _, err := txScript(hd, pd, objsd, -1); err != nil {
		t.Fatal(err)
	}
	e1 := hd.NV.Events()

	// Sample outer crash points across the span (the exhaustive sweep
	// already covers single-crash outcomes; here each outer point fans out
	// into an inner sweep over the recovery itself).
	for e := e0; e < e1; e += 5 {
		// First run: crash the transaction at e under the torn adversary
		// and record the exact survivor set for deterministic replay.
		as, store, h, p, objs := sweepWorld(t, 42)
		crashed, err := runArmed(h, e, func() error {
			_, err := txScript(h, p, objs, -1)
			return err
		})
		if err != nil || !crashed {
			t.Fatalf("outer@%d: crashed=%v err=%v", e, crashed, err)
		}
		rep, err := h.Crash(nvmsim.TornPolicy(e))
		if err != nil {
			t.Fatal(err)
		}
		replay := rep.Explicit()

		// Path A: recover to completion, then lose power again with
		// nothing kept. If recovery persisted everything it wrote, the
		// drop-all crash changes nothing.
		hA := freshHeap(t, as, store)
		pA, err := hA.Open("cp")
		if err != nil {
			t.Fatal(err)
		}
		baseEv := hA.NV.Events()
		if err := hA.Recover(pA); err != nil {
			t.Fatalf("outer@%d: recover: %v", e, err)
		}
		recEvents := hA.NV.Events() - baseEv
		// Recover again: must be a no-op.
		if err := hA.Recover(pA); err != nil {
			t.Fatalf("outer@%d: second recover: %v", e, err)
		}
		if _, err := hA.Crash(nvmsim.DropAllPolicy()); err != nil {
			t.Fatal(err)
		}
		want := durableSnapshot(t, store, "cp")

		// Path B: same crashed image, but recovery is itself cut short at
		// every event, crashed drop-all, and re-run. The second recovery
		// must land on byte-identical durable state.
		for k := uint64(0); k < recEvents; k++ {
			asB, storeB, hB, pB, objsB := sweepWorld(t, 42)
			crashed, err := runArmed(hB, e, func() error {
				_, err := txScript(hB, pB, objsB, -1)
				return err
			})
			if err != nil || !crashed {
				t.Fatalf("outer@%d replay: crashed=%v err=%v", e, crashed, err)
			}
			if _, err := hB.Crash(replay); err != nil {
				t.Fatal(err)
			}

			h1 := freshHeap(t, asB, storeB)
			p1, err := h1.Open("cp")
			if err != nil {
				t.Fatal(err)
			}
			crashed, err = runArmed(h1, h1.NV.Events()+k, func() error {
				return h1.Recover(p1)
			})
			if err != nil {
				t.Fatalf("outer@%d inner@%d: recover: %v", e, k, err)
			}
			_ = crashed // k == recEvents-boundary may complete; either way is fine
			if _, err := h1.Crash(nvmsim.DropAllPolicy()); err != nil {
				t.Fatal(err)
			}

			h2 := freshHeap(t, asB, storeB)
			p2, err := h2.Open("cp")
			if err != nil {
				t.Fatal(err)
			}
			if err := h2.Recover(p2); err != nil {
				t.Fatalf("outer@%d inner@%d: re-recover: %v", e, k, err)
			}
			if h2.NeedsRecovery(p2) {
				t.Fatalf("outer@%d inner@%d: still dirty", e, k)
			}
			if _, err := h2.Crash(nvmsim.DropAllPolicy()); err != nil {
				t.Fatal(err)
			}
			got := durableSnapshot(t, storeB, "cp")
			if !bytes.Equal(want, got) {
				t.Fatalf("outer@%d inner@%d: interrupted recovery diverged from clean recovery (kept %s)",
					e, k, rep.KeptString())
			}
		}
	}
}
