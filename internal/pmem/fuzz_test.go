package pmem

import (
	"testing"

	"potgo/internal/isa"
	"potgo/internal/nvmsim"
	"potgo/internal/oid"
	"potgo/internal/vm"
)

// FuzzCrashRecovery drives the transactional API with an arbitrary
// byte-script, crashes it at a fuzzer-chosen persistent-memory event under
// a fuzzer-chosen adversary, recovers, and checks the allocator's
// structural invariants (CheckPool: free-list sanity, no double-threading,
// no overlap) plus basic liveness of the recovered heap. It extends the
// deterministic sweeps with coverage of multi-transaction interleavings —
// commit, abort, re-allocation of freed blocks — that the fixed scripts
// don't reach.
//
// The harness itself must use the API correctly (no double frees, no
// touching freed objects); the fuzzer explores crash timing and line loss,
// not API misuse.

// fuzzOps interprets script bytes against the heap. Returns nil on clean
// completion. The interpreter tracks object liveness so every generated
// call is legal.
func fuzzOps(h *Heap, p *Pool, setup []oid.OID, script []byte) error {
	lives := append([]oid.OID(nil), setup...)
	var txAllocs, txFrees []oid.OID
	var tx *Tx // nil outside a transaction
	begin := func() (err error) {
		if tx != nil {
			return nil
		}
		txAllocs, txFrees = nil, nil
		tx, err = h.Begin(p)
		return err
	}
	commit := func() error {
		if tx == nil {
			return nil
		}
		err := tx.Commit()
		tx = nil
		if err != nil {
			return err
		}
		freed := make(map[oid.OID]bool, len(txFrees))
		for _, o := range txFrees {
			freed[o] = true
		}
		kept := lives[:0]
		for _, o := range lives {
			if !freed[o] {
				kept = append(kept, o)
			}
		}
		lives = kept
		for _, o := range txAllocs {
			if !freed[o] {
				lives = append(lives, o)
			}
		}
		return nil
	}

	const maxOps = 16
	for i := 0; i < len(script) && i < maxOps; i++ {
		b := script[i]
		switch b % 5 {
		case 0: // transactional update of a live object
			if len(lives) == 0 {
				continue
			}
			o := lives[int(b/5)%len(lives)]
			if err := begin(); err != nil {
				return err
			}
			if err := tx.AddRange(o, 16); err != nil {
				return err
			}
			ref, err := h.Deref(o, isa.RZ)
			if err != nil {
				return err
			}
			if err := ref.Store64(uint32(b%2)*8, uint64(b)+1, isa.RZ); err != nil {
				return err
			}
		case 1: // transactional allocation
			if err := begin(); err != nil {
				return err
			}
			size := uint32(16) << (b % 4) // 16..128
			o, err := tx.Alloc(p, size)
			if err != nil {
				return err
			}
			txAllocs = append(txAllocs, o)
		case 2: // transactional free of a live-or-this-tx object
			pool := append(append([]oid.OID(nil), lives...), txAllocs...)
			already := make(map[oid.OID]bool, len(txFrees))
			for _, o := range txFrees {
				already[o] = true
			}
			var victim oid.OID
			for j := 0; j < len(pool); j++ {
				c := pool[(int(b/5)+j)%len(pool)]
				if !already[c] {
					victim = c
					break
				}
			}
			if victim == oid.Null {
				continue
			}
			if err := begin(); err != nil {
				return err
			}
			if err := tx.Free(victim); err != nil {
				return err
			}
			txFrees = append(txFrees, victim)
		case 3: // commit
			if err := commit(); err != nil {
				return err
			}
		case 4: // abort (allocs rolled back, frees dropped)
			if tx == nil {
				continue
			}
			// The aborted allocations are dead objects; the dropped frees
			// leave their targets live.
			txAllocs, txFrees = nil, nil
			err := tx.Abort()
			tx = nil
			if err != nil {
				return err
			}
		}
	}
	return commit()
}

func fuzzWorld(tb testing.TB) (*vm.AddressSpace, *Store, *Heap, *Pool, []oid.OID) {
	tb.Helper()
	as := vm.NewAddressSpace(1234)
	store := NewStore()
	h, err := NewHeapDiscard(as, store)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := h.Create("fz", 256*1024)
	if err != nil {
		tb.Fatal(err)
	}
	setup := make([]oid.OID, 4)
	for i := range setup {
		if setup[i], err = h.Alloc(p, 16); err != nil {
			tb.Fatal(err)
		}
	}
	if err := h.SyncPool(p); err != nil {
		tb.Fatal(err)
	}
	return as, store, h, p, setup
}

func FuzzCrashRecovery(f *testing.F) {
	f.Add(uint64(0), uint64(0), []byte{0, 1, 2, 3})
	f.Add(uint64(17), uint64(1), []byte{1, 1, 3, 2, 2, 3})
	f.Add(uint64(40), uint64(2), []byte{0, 5, 10, 3, 2, 3, 1, 4})
	f.Add(uint64(93), uint64(1), []byte{2, 3, 1, 1, 4, 0, 3})
	f.Fuzz(func(t *testing.T, armChoice, polChoice uint64, script []byte) {
		// Dry run: how many events does this script produce?
		_, _, h, p, setup := fuzzWorld(t)
		base := h.NV.Events()
		if err := fuzzOps(h, p, setup, script); err != nil {
			t.Skip() // script exhausted the pool/log: not a crash-safety case
		}
		span := h.NV.Events() - base
		if span == 0 {
			t.Skip()
		}

		// Armed run on a fresh, identical world.
		as, store, h2, p2, setup2 := fuzzWorld(t)
		crashed, err := runArmedTB(h2, base+armChoice%span, func() error {
			return fuzzOps(h2, p2, setup2, script)
		})
		if err != nil {
			t.Skip()
		}
		_ = crashed
		var pol nvmsim.Policy
		switch polChoice % 3 {
		case 0:
			pol = nvmsim.DropAllPolicy()
		case 1:
			pol = nvmsim.KeepRandomPolicy(armChoice)
		case 2:
			pol = nvmsim.TornPolicy(armChoice)
		}
		rep, err := h2.Crash(pol)
		if err != nil {
			t.Fatal(err)
		}

		// Reattach, recover, and check the structural invariants.
		h3, err := NewHeapDiscard(as, store)
		if err != nil {
			t.Fatal(err)
		}
		p3, err := h3.Open("fz")
		if err != nil {
			t.Fatal(err)
		}
		if err := h3.Recover(p3); err != nil {
			t.Fatalf("recover (kept %s): %v", rep.KeptString(), err)
		}
		if h3.NeedsRecovery(p3) {
			t.Fatalf("still dirty after recovery (kept %s)", rep.KeptString())
		}
		if err := h3.CheckPool(p3); err != nil {
			t.Fatalf("after recovery (kept %s): %v", rep.KeptString(), err)
		}
		// The recovered heap is alive: fresh allocations of every class
		// work and don't collide.
		seen := make(map[oid.OID]bool)
		for _, size := range []uint32{16, 64, 256} {
			o, err := h3.Alloc(p3, size)
			if err != nil {
				t.Fatalf("post-recovery alloc(%d) (kept %s): %v", size, rep.KeptString(), err)
			}
			if seen[o] {
				t.Fatalf("post-recovery alloc(%d) returned duplicate %v", size, o)
			}
			seen[o] = true
		}
		if err := h3.CheckPool(p3); err != nil {
			t.Fatalf("after post-recovery allocs (kept %s): %v", rep.KeptString(), err)
		}
	})
}

// runArmedTB is runArmed for contexts without a *testing.T world builder.
func runArmedTB(h *Heap, at uint64, fn func() error) (crashed bool, err error) {
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
