package pmem

import (
	"errors"
	"testing"

	"potgo/internal/emit"
	"potgo/internal/isa"
	"potgo/internal/nvmsim"
	"potgo/internal/oid"
	"potgo/internal/randtest"
	"potgo/internal/vm"
)

// newFTEnv builds a single-threaded OPT heap with one fault-tolerant pool.
func newFTEnv(t *testing.T) (*env, *Pool) {
	t.Helper()
	e := newEnv(t, emit.Opt)
	p, err := e.h.CreateSizedFT("ft", testPoolBytes, DefaultLogBytes)
	if err != nil {
		t.Fatal(err)
	}
	return e, p
}

// ftAllocObjs allocates n slab objects of the given size transactionally
// and fills each with a deterministic pattern, committing as it goes, so
// checksums and parity are maintained by the commit path.
func ftAllocObjs(t *testing.T, h *Heap, p *Pool, n int, size uint32) []oid.OID {
	t.Helper()
	objs := make([]oid.OID, n)
	for i := range objs {
		tx, err := h.Begin(p)
		if err != nil {
			t.Fatal(err)
		}
		o, err := tx.Alloc(p, size)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := h.Deref(o, isa.RZ)
		if err != nil {
			t.Fatal(err)
		}
		for off := uint32(0); off+8 <= size; off += 8 {
			if err := ref.Store64(off, uint64(i)<<32|uint64(off)|0xABCD, isa.RZ); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}
	return objs
}

func readObj(t *testing.T, h *Heap, o oid.OID, size uint32) []byte {
	t.Helper()
	ref, err := h.Deref(o, isa.RZ)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, size)
	if err := ref.ReadBytes(0, b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFTLayout(t *testing.T) {
	e, p := newFTEnv(t)
	if !p.FaultTolerant() {
		t.Fatal("pool must report fault tolerance")
	}
	if p.b.parityBytes == 0 {
		t.Fatal("parity column must be non-empty")
	}
	want := logStart + p.b.logBytes + p.b.parityBytes
	if p.dataStart() != want {
		t.Fatalf("dataStart = %#x, want %#x", p.dataStart(), want)
	}
	// Every parity line a data-region group can name must fit in the column.
	dataLines := (p.b.size - p.dataStart() + nvmsim.LineBytes - 1) / nvmsim.LineBytes
	groups := (dataLines + parityStride - 1) / parityStride
	if groups*nvmsim.LineBytes > p.b.parityBytes {
		t.Fatalf("parity column %d bytes too small for %d groups", p.b.parityBytes, groups)
	}
	if err := e.h.CheckPool(p); err != nil {
		t.Fatal(err)
	}
	// A plain pool on the same heap is unaffected.
	q := e.create(t, "plain")
	if q.FaultTolerant() {
		t.Fatal("plain pool must not report fault tolerance")
	}
	if err := e.h.CheckPool(q); err != nil {
		t.Fatal(err)
	}
}

func TestFTCommitMaintainsDerivedState(t *testing.T) {
	e, p := newFTEnv(t)
	objs := ftAllocObjs(t, e.h, p, 8, 64)
	// Every committed object's stored checksum matches its payload, and a
	// full scrub finds nothing to repair.
	st, err := e.h.ScrubPool(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Checked != len(objs) || st.Repaired != 0 || st.Unrepairable != 0 || st.ParityRepaired != 0 {
		t.Fatalf("clean pool scrub = %+v", st)
	}
	// VerifyOnRead passes on every object.
	e.h.SetVerifyOnRead(true)
	for _, o := range objs {
		if _, err := e.h.Deref(o, isa.RZ); err != nil {
			t.Fatalf("verified deref of clean object: %v", err)
		}
	}
}

func TestFTVerifyOnReadCatchesPayloadFlip(t *testing.T) {
	e, p := newFTEnv(t)
	objs := ftAllocObjs(t, e.h, p, 4, 64)
	before := readObj(t, e.h, objs[1], 64)
	if err := e.h.SyncPool(p); err != nil {
		t.Fatal(err)
	}
	seed := uint64(randtest.Seed(t, 41))
	t.Logf("corruption seed %d", seed)
	faults, err := e.h.CorruptObjects(1, CorruptDetect, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 1 || faults[0].Kind != "payload" {
		t.Fatalf("faults = %+v", faults)
	}
	bad := faults[0].OID
	e.h.SetVerifyOnRead(true)
	_, err = e.h.Deref(bad, isa.RZ)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("deref of corrupt object = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.OID != bad {
		t.Fatalf("corrupt error names %v, want %v", ce, bad)
	}
	// Inline repair brings the object back byte-exactly.
	repaired, err := e.h.RepairObject(bad)
	if err != nil || !repaired {
		t.Fatalf("RepairObject = %v, %v", repaired, err)
	}
	if _, err := e.h.Deref(bad, isa.RZ); err != nil {
		t.Fatalf("deref after repair: %v", err)
	}
	if bad == objs[1] {
		after := readObj(t, e.h, objs[1], 64)
		if string(before) != string(after) {
			t.Fatal("repaired payload differs from original")
		}
	}
}

func TestFTScrubRepairsPayloadFlips(t *testing.T) {
	for _, k := range []int{1, 4} {
		e, p := newFTEnv(t)
		objs := ftAllocObjs(t, e.h, p, 16, 128)
		baseline := make(map[oid.OID][]byte, len(objs))
		for _, o := range objs {
			baseline[o] = readObj(t, e.h, o, 128)
		}
		if err := e.h.SyncPool(p); err != nil {
			t.Fatal(err)
		}
		seed := uint64(randtest.Seed(t, 43))
		t.Logf("k=%d corruption seed %d", k, seed)
		faults, err := e.h.CorruptObjects(k, CorruptDetect, seed)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.h.ScrubPool(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Repaired != len(faults) || st.Unrepairable != 0 {
			t.Fatalf("k=%d scrub = %+v, want %d repaired", k, st, len(faults))
		}
		e.h.SetVerifyOnRead(true)
		for _, o := range objs {
			got := readObj(t, e.h, o, 128)
			if string(got) != string(baseline[o]) {
				t.Fatalf("k=%d object %v bytes differ after repair", k, o)
			}
		}
		// A second scrub is a no-op: repair converged.
		st2, err := e.h.ScrubPool(p)
		if err != nil {
			t.Fatal(err)
		}
		if st2.Repaired != 0 || st2.Unrepairable != 0 || st2.ParityRepaired != 0 {
			t.Fatalf("k=%d second scrub = %+v, want clean", k, st2)
		}
	}
}

func TestFTScrubRepairsSilentFlips(t *testing.T) {
	e, p := newFTEnv(t)
	ftAllocObjs(t, e.h, p, 32, 256)
	if err := e.h.SyncPool(p); err != nil {
		t.Fatal(err)
	}
	seed := uint64(randtest.Seed(t, 47))
	t.Logf("corruption seed %d", seed)
	faults, err := e.h.CorruptObjects(4, CorruptSilent, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Silent faults are invisible to VerifyOnRead...
	e.h.SetVerifyOnRead(true)
	csums := 0
	for _, f := range faults {
		if f.Kind == "payload" {
			t.Fatalf("silent mode injected a payload fault: %+v", f)
		}
		if f.Kind == "csum" {
			csums++
		}
		if _, err := e.h.Deref(f.OID, isa.RZ); err != nil && f.Kind == "parity" {
			t.Fatalf("parity fault visible to read: %v", err)
		}
	}
	e.h.SetVerifyOnRead(false)
	// ...but the scrub accounts for every one: checksum faults repair in
	// phase A, parity faults in the group sweep.
	st, err := e.h.ScrubPool(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repaired != csums || st.ParityRepaired != len(faults)-csums || st.Unrepairable != 0 {
		t.Fatalf("scrub = %+v, want %d csum repairs + %d parity repairs",
			st, csums, len(faults)-csums)
	}
	st2, err := e.h.ScrubPool(p)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Repaired != 0 || st2.Unrepairable != 0 || st2.ParityRepaired != 0 {
		t.Fatalf("second scrub = %+v, want clean", st2)
	}
}

func TestFTVerifyStandsDownInTx(t *testing.T) {
	e, p := newFTEnv(t)
	objs := ftAllocObjs(t, e.h, p, 2, 64)
	e.h.SetVerifyOnRead(true)
	tx, err := e.h.Begin(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRange(objs[0], 64); err != nil {
		t.Fatal(err)
	}
	ref, err := e.h.Deref(objs[0], isa.RZ)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Store64(0, 0xDEAD, isa.RZ); err != nil {
		t.Fatal(err)
	}
	// The stored checksum is now stale, but mid-transaction dereference
	// must not trip.
	if _, err := e.h.Deref(objs[0], isa.RZ); err != nil {
		t.Fatalf("mid-tx deref: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Commit recomputed the checksum; verification is live again.
	if _, err := e.h.Deref(objs[0], isa.RZ); err != nil {
		t.Fatalf("post-commit deref: %v", err)
	}
}

func TestFTAbortRestoresDerivedState(t *testing.T) {
	e, p := newFTEnv(t)
	objs := ftAllocObjs(t, e.h, p, 2, 64)
	before := readObj(t, e.h, objs[0], 64)
	tx, err := e.h.Begin(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRange(objs[0], 64); err != nil {
		t.Fatal(err)
	}
	ref, err := e.h.Deref(objs[0], isa.RZ)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Store64(0, 0xBEEF, isa.RZ); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Alloc(p, 64); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := readObj(t, e.h, objs[0], 64); string(got) != string(before) {
		t.Fatal("abort did not restore bytes")
	}
	st, err := e.h.ScrubPool(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repaired != 0 || st.Unrepairable != 0 || st.ParityRepaired != 0 {
		t.Fatalf("scrub after abort = %+v, want clean", st)
	}
	e.h.SetVerifyOnRead(true)
	if _, err := e.h.Deref(objs[0], isa.RZ); err != nil {
		t.Fatalf("deref after abort: %v", err)
	}
}

func TestFTRecoverRestoresDerivedState(t *testing.T) {
	store := NewStore()
	{
		as := vm.NewAddressSpace(7001)
		h := freshHeap(t, as, store)
		p, err := h.CreateSizedFT("ft", testPoolBytes, DefaultLogBytes)
		if err != nil {
			t.Fatal(err)
		}
		objs := ftAllocObjs(t, h, p, 4, 64)
		// Open a transaction, dirty an object, and crash before commit.
		tx, err := h.Begin(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.AddRange(objs[0], 64); err != nil {
			t.Fatal(err)
		}
		ref, err := h.Deref(objs[0], isa.RZ)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Store64(0, 0xFEED, isa.RZ); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Crash(nvmsim.DropAllPolicy()); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh process: reopen, recover, and the derived state must hold
	// without any rebuild.
	as := vm.NewAddressSpace(7002)
	h := freshHeap(t, as, store)
	p, err := h.Open("ft")
	if err != nil {
		t.Fatal(err)
	}
	if !h.NeedsRecovery(p) {
		t.Fatal("pool must need recovery after mid-tx crash")
	}
	if err := h.Recover(p); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckPool(p); err != nil {
		t.Fatal(err)
	}
	st, err := h.ScrubPool(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repaired != 0 || st.Unrepairable != 0 || st.ParityRepaired != 0 {
		t.Fatalf("scrub after recovery = %+v, want clean", st)
	}
}

func TestFTCorruptObjectsDeterministic(t *testing.T) {
	seed := uint64(randtest.Seed(t, 53))
	t.Logf("corruption seed %d", seed)
	run := func() []Corruption {
		e, p := newFTEnv(t)
		ftAllocObjs(t, e.h, p, 16, 256)
		if err := e.h.SyncPool(p); err != nil {
			t.Fatal(err)
		}
		faults, err := e.h.CorruptObjects(3, CorruptSilent, seed)
		if err != nil {
			t.Fatal(err)
		}
		return faults
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("fault counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFTMutateNoParityBreaksRepair(t *testing.T) {
	e, p := newFTEnv(t)
	e.h.MutateNoParity(true)
	ftAllocObjs(t, e.h, p, 8, 64)
	if err := e.h.SyncPool(p); err != nil {
		t.Fatal(err)
	}
	seed := uint64(randtest.Seed(t, 59))
	t.Logf("corruption seed %d", seed)
	if _, err := e.h.CorruptObjects(2, CorruptDetect, seed); err != nil {
		t.Fatal(err)
	}
	st, err := e.h.ScrubPool(p)
	if err != nil {
		t.Fatal(err)
	}
	// With parity maintenance disabled the faults are detected but cannot
	// be reconstructed: the campaign's mutation check hinges on this.
	if st.Unrepairable == 0 {
		t.Fatalf("scrub with parity disabled = %+v, want unrepairable > 0", st)
	}
}
