package pmem

import (
	"testing"

	"potgo/internal/emit"
	"potgo/internal/isa"
	"potgo/internal/nvmsim"
	"potgo/internal/oid"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

type env struct {
	as    *vm.AddressSpace
	store *Store
	buf   *trace.Buffer
	h     *Heap
}

func newEnv(t *testing.T, mode emit.Mode) *env {
	t.Helper()
	as := vm.NewAddressSpace(7)
	store := NewStore()
	return attach(t, as, store, mode)
}

func attach(t *testing.T, as *vm.AddressSpace, store *Store, mode emit.Mode) *env {
	t.Helper()
	buf := &trace.Buffer{}
	em := emit.New(buf, mode)
	var soft *emit.SoftTranslator
	if mode == emit.Base {
		var err error
		soft, err = emit.NewSoftTranslator(em, as, 256)
		if err != nil {
			t.Fatal(err)
		}
	}
	h, err := NewHeap(as, store, em, soft)
	if err != nil {
		t.Fatal(err)
	}
	return &env{as: as, store: store, buf: buf, h: h}
}

// instrs hands the emitter's pending chunk over and returns every
// instruction emitted so far.
func (e *env) instrs() []isa.Instr {
	e.h.Emit.Flush()
	return e.buf.Instrs
}

const testPoolBytes = 256 * 1024

func (e *env) create(t *testing.T, name string) *Pool {
	t.Helper()
	p, err := e.h.Create(name, testPoolBytes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewHeapValidation(t *testing.T) {
	as := vm.NewAddressSpace(1)
	em := emit.New(trace.Discard{}, emit.Base)
	if _, err := NewHeap(as, NewStore(), em, nil); err == nil {
		t.Error("BASE heap without software translator must fail")
	}
}

func TestCreateOpenClose(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "pool-a")
	if p.ID() == oid.NullPool {
		t.Error("pool id must be nonzero")
	}
	if p.Name() != "pool-a" || p.Size() != testPoolBytes {
		t.Error("pool metadata")
	}
	if _, err := e.h.Create("pool-a", testPoolBytes); err == nil {
		t.Error("duplicate create must fail")
	}
	if _, err := e.h.Open("pool-a"); err == nil {
		t.Error("double open must fail")
	}
	if e.h.OpenPools() != 1 {
		t.Errorf("open pools = %d", e.h.OpenPools())
	}
	id := p.ID()
	if err := e.h.Close(p); err != nil {
		t.Fatal(err)
	}
	p2, err := e.h.Open("pool-a")
	if err != nil {
		t.Fatal(err)
	}
	if p2.ID() != id {
		t.Error("pool id must be stable across close/open")
	}
	if _, err := e.h.Open("missing"); err == nil {
		t.Error("open of nonexistent pool must fail")
	}
	if _, err := e.h.Create("tiny", 100); err == nil {
		t.Error("sub-minimum pool must fail")
	}
}

func TestPoolIDsUniqueAndSystemWide(t *testing.T) {
	e := newEnv(t, emit.Opt)
	seen := map[oid.PoolID]bool{}
	for i := 0; i < 20; i++ {
		p, err := e.h.CreateSized(string(rune('a'+i)), 64*1024, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p.ID()] {
			t.Fatalf("pool id %d reused", p.ID())
		}
		seen[p.ID()] = true
	}
	if len(e.store.byName) != 20 {
		t.Errorf("store pools = %d", len(e.store.byName))
	}
}

func TestDataPersistsAcrossCloseOpen(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	o, err := e.h.Alloc(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.h.Deref(o, isa.RZ)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Store64(0, 0xfeedface, isa.RZ); err != nil {
		t.Fatal(err)
	}
	if err := e.h.Close(p); err != nil {
		t.Fatal(err)
	}
	p, err = e.h.Open("p")
	if err != nil {
		t.Fatal(err)
	}
	ref, err = e.h.Deref(o, isa.RZ)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ref.Load64(0)
	if err != nil {
		t.Fatal(err)
	}
	if w.V != 0xfeedface {
		t.Errorf("data lost across close/open: %#x", w.V)
	}
	// The new mapping is (almost certainly) at a different ASLR address,
	// yet the ObjectID still resolves: relocatability.
}

func TestDerefModes(t *testing.T) {
	// OPT: field accesses are nvld/nvst carrying ObjectIDs.
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	o, _ := e.h.Alloc(p, 32)
	before := len(e.instrs())
	ref, _ := e.h.Deref(o, isa.RZ)
	if len(e.instrs()) != before {
		t.Error("OPT Deref must emit nothing")
	}
	ref.Store64(8, 42, isa.RZ)
	last := e.instrs()[len(e.instrs())-1]
	if last.Op != isa.NVStore || last.Addr != uint64(o.FieldAt(8)) {
		t.Errorf("OPT store = %v", last)
	}
	w, _ := ref.Load64(8)
	if w.V != 42 {
		t.Errorf("functional readback = %d", w.V)
	}
	last = e.instrs()[len(e.instrs())-1]
	if last.Op != isa.NVLoad {
		t.Errorf("OPT load = %v", last)
	}

	// BASE: Deref emits oid_direct, field accesses are regular ld/st.
	eb := newEnv(t, emit.Base)
	pb := eb.create(t, "p")
	ob, _ := eb.h.Alloc(pb, 32)
	before = len(eb.instrs())
	refb, err := eb.h.Deref(ob, isa.RZ)
	if err != nil {
		t.Fatal(err)
	}
	if len(eb.instrs()) == before {
		t.Error("BASE Deref must emit the translation sequence")
	}
	refb.Store64(8, 43, isa.RZ)
	last = eb.instrs()[len(eb.instrs())-1]
	if last.Op != isa.Store {
		t.Errorf("BASE store = %v", last)
	}
	wb, _ := refb.Load64(8)
	if wb.V != 43 {
		t.Errorf("BASE functional readback = %d", wb.V)
	}
}

func TestReadWriteBytes(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	o, _ := e.h.Alloc(p, 64)
	ref, _ := e.h.Deref(o, isa.RZ)
	data := make([]byte, 40)
	for i := range data {
		data[i] = byte(i * 3)
	}
	if err := ref.WriteBytes(8, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 40)
	if err := ref.ReadBytes(8, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], data[i])
		}
	}
}

func TestDerefClosedPoolFails(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	o, _ := e.h.Alloc(p, 16)
	e.h.Close(p)
	if _, err := e.h.Deref(o, isa.RZ); err == nil {
		t.Error("deref into closed pool must fail")
	}
}

func TestAllocBasics(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	a, err := e.h.Alloc(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.h.Alloc(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("allocations must be distinct")
	}
	if a.Pool() != p.ID() {
		t.Error("allocation must be in the requested pool")
	}
	if _, err := e.h.Alloc(p, 0); err == nil {
		t.Error("zero-size alloc must fail")
	}
	// Distinct allocations never overlap (16-byte class).
	d := int64(b.Offset()) - int64(a.Offset())
	if d < 0 {
		d = -d
	}
	if d < 16 {
		t.Errorf("allocations overlap: distance %d", d)
	}
}

func TestFreeAndReuse(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	a, _ := e.h.Alloc(p, 64)
	if err := e.h.Free(a); err != nil {
		t.Fatal(err)
	}
	b, _ := e.h.Alloc(p, 64)
	if a != b {
		t.Errorf("freed block must be reused: %v then %v", a, b)
	}
	// LIFO reuse within a class.
	c, _ := e.h.Alloc(p, 64)
	e.h.Free(b)
	e.h.Free(c)
	d, _ := e.h.Alloc(p, 64)
	if d != c {
		t.Errorf("free list must be LIFO: freed %v last, got %v", c, d)
	}
	// Freeing junk fails.
	if err := e.h.Free(oid.New(p.ID(), 4)); err == nil {
		t.Error("free of non-heap offset must fail")
	}
	if err := e.h.Free(oid.New(9999, 64)); err == nil {
		t.Error("free in unknown pool must fail")
	}
}

func TestAllocSizeClassesDoNotMix(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	small, _ := e.h.Alloc(p, 16)
	e.h.Free(small)
	big, _ := e.h.Alloc(p, 1024)
	if big == small {
		t.Error("1024-byte alloc must not reuse a 16-byte block")
	}
}

func TestAllocOOM(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p, err := e.h.CreateSized("small", MinPoolBytes(4096), 4096)
	if err != nil {
		t.Fatal(err)
	}
	var last error
	for i := 0; i < 10000; i++ {
		if _, last = e.h.Alloc(p, 128); last != nil {
			break
		}
	}
	if last == nil {
		t.Error("pool must eventually run out of memory")
	}
}

func TestLargeAllocation(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	o, err := e.h.Alloc(p, 10000) // beyond the largest class
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := e.h.Deref(o, isa.RZ)
	if err := ref.Store64(9992, 7, isa.RZ); err != nil {
		t.Fatal(err)
	}
	// Freeing a large block is accepted (dropped).
	if err := e.h.Free(o); err != nil {
		t.Fatal(err)
	}
}

func TestRoot(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	r1, err := e.h.Root(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.h.Root(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("root must be stable")
	}
	if _, err := e.h.Root(p, 4096); err == nil {
		t.Error("requesting a larger root than created must fail")
	}
	// Root survives close/open.
	e.h.Close(p)
	p, _ = e.h.Open("p")
	r3, err := e.h.Root(p, 64)
	if err != nil || r3 != r1 {
		t.Errorf("root after reopen = %v, %v", r3, err)
	}
}

func TestPersistEmitsCLWBs(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	o, _ := e.h.Alloc(p, 256)
	before := len(e.instrs())
	if err := e.h.Persist(o, 200); err != nil {
		t.Fatal(err)
	}
	var clwbs, fences int
	for _, in := range e.instrs()[before:] {
		switch in.Op {
		case isa.CLWB:
			clwbs++
		case isa.SFence:
			fences++
		}
	}
	// 200 bytes from an arbitrary offset covers 4 cache lines (possibly
	// straddling), and exactly one fence.
	if clwbs < 4 || clwbs > 5 {
		t.Errorf("CLWBs = %d, want 4..5", clwbs)
	}
	if fences != 1 {
		t.Errorf("fences = %d", fences)
	}
	// Zero-size persist is a fence only.
	before = len(e.instrs())
	e.h.Persist(o, 0)
	if n := len(e.instrs()) - before; n != 1 {
		t.Errorf("zero persist emitted %d instructions", n)
	}
}

func TestDirectOnlyInBase(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	o, _ := e.h.Alloc(p, 16)
	if _, err := e.h.Direct(o); err == nil {
		t.Error("Direct in OPT mode must fail")
	}
	eb := newEnv(t, emit.Base)
	pb := eb.create(t, "p")
	ob, _ := eb.h.Alloc(pb, 16)
	va, err := eb.h.Direct(ob)
	if err != nil {
		t.Fatal(err)
	}
	want := pb.Base() + uint64(ob.Offset())
	if va != want {
		t.Errorf("Direct = %#x, want %#x", va, want)
	}
}

func TestTxCommit(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	o, _ := e.h.Alloc(p, 16)
	ref, _ := e.h.Deref(o, isa.RZ)
	ref.Store64(0, 1, isa.RZ)

	tx, err := e.h.Begin(p)
	if err != nil {
		t.Fatal(err)
	}
	if !e.h.poolBusy(p) {
		t.Error("the pool must be busy inside the transaction")
	}
	if err := tx.AddRange(o, 16); err != nil {
		t.Fatal(err)
	}
	ref.Store64(0, 2, isa.RZ)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	w, _ := ref.Load64(0)
	if w.V != 2 {
		t.Errorf("committed value = %d", w.V)
	}
	if e.h.NeedsRecovery(p) {
		t.Error("committed pool must not need recovery")
	}
}

func TestTxAbortRestores(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	o, _ := e.h.Alloc(p, 16)
	ref, _ := e.h.Deref(o, isa.RZ)
	ref.Store64(0, 111, isa.RZ)
	ref.Store64(8, 222, isa.RZ)

	tx, _ := e.h.Begin(p)
	tx.AddRange(o, 16)
	ref.Store64(0, 999, isa.RZ)
	ref.Store64(8, 888, isa.RZ)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	w0, _ := ref.Load64(0)
	w8, _ := ref.Load64(8)
	if w0.V != 111 || w8.V != 222 {
		t.Errorf("abort must restore: %d, %d", w0.V, w8.V)
	}
	if e.h.poolBusy(p) {
		t.Error("no tx after abort")
	}
}

func TestTxAllocUndoneOnAbort(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	tx, _ := e.h.Begin(p)
	o, err := tx.Alloc(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	// The aborted allocation's block must be back on the free list.
	o2, _ := e.h.Alloc(p, 64)
	if o2 != o {
		t.Errorf("aborted tx_pmalloc block not reclaimed: %v vs %v", o, o2)
	}
}

func TestTxFreeDeferred(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	o, _ := e.h.Alloc(p, 64)
	ref, _ := e.h.Deref(o, isa.RZ)
	ref.Store64(0, 7, isa.RZ)

	// Abort: the free never happens.
	tx, _ := e.h.Begin(p)
	tx.Free(o)
	tx.Abort()
	w, _ := ref.Load64(0)
	if w.V != 7 {
		t.Error("aborted tx_pfree must not free")
	}

	// Commit: the free applies.
	tx, _ = e.h.Begin(p)
	tx.Free(o)
	tx.Commit()
	o2, _ := e.h.Alloc(p, 64)
	if o2 != o {
		t.Errorf("committed tx_pfree must recycle the block: %v vs %v", o, o2)
	}
}

func TestTxErrors(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	q := e.create(t, "q")
	o, _ := e.h.Alloc(q, 16)
	tx, err := e.h.Begin(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.h.Begin(p); err == nil {
		t.Error("a second tx on the same pool must fail")
	}
	if err := e.h.Close(p); err == nil {
		t.Error("closing a pool with an active tx must fail")
	}
	if err := e.h.Close(q); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRange(o, 16); err == nil {
		t.Error("tx_add_range in a closed pool must fail")
	}
	if err := tx.Free(o); err == nil {
		t.Error("tx_pfree in a closed pool must fail")
	}
	if _, err := e.h.Begin(q); err == nil {
		t.Error("tx_begin on a closed pool must fail")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTxLogFull(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p, err := e.h.CreateSized("p", 1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := e.h.Alloc(p, 2048)
	tx, _ := e.h.Begin(p)
	var last error
	for i := 0; i < 100; i++ {
		if last = tx.AddRange(o, 2048); last != nil {
			break
		}
	}
	if last == nil {
		t.Error("undo log must eventually fill")
	}
	tx.Abort()
}

func TestCrashRecovery(t *testing.T) {
	as := vm.NewAddressSpace(7)
	store := NewStore()
	e := attach(t, as, store, emit.Opt)
	p := e.create(t, "p")
	o, _ := e.h.Alloc(p, 16)
	ref, _ := e.h.Deref(o, isa.RZ)
	ref.Store64(0, 1000, isa.RZ)
	e.h.Persist(o, 16)

	// Start a transaction, snapshot, scribble, then crash mid-flight.
	tx, _ := e.h.Begin(p)
	tx.AddRange(o, 16)
	ref.Store64(0, 2000, isa.RZ)
	if _, err := e.h.Crash(nvmsim.DropAllPolicy()); err != nil {
		t.Fatal(err)
	}

	// A fresh process attaches to the same store.
	e2 := attach(t, as, store, emit.Opt)
	p2, err := e2.h.Open("p")
	if err != nil {
		t.Fatal(err)
	}
	if !e2.h.NeedsRecovery(p2) {
		t.Fatal("interrupted transaction must be detected")
	}
	if err := e2.h.Recover(p2); err != nil {
		t.Fatal(err)
	}
	ref2, _ := e2.h.Deref(o, isa.RZ)
	w, _ := ref2.Load64(0)
	if w.V != 1000 {
		t.Errorf("recovery must restore the snapshot: got %d", w.V)
	}
	if e2.h.NeedsRecovery(p2) {
		t.Error("recovered pool must be clean")
	}
	// Recover on a clean pool is a no-op.
	if err := e2.h.Recover(p2); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryUndoesAllocs(t *testing.T) {
	as := vm.NewAddressSpace(9)
	store := NewStore()
	e := attach(t, as, store, emit.Opt)
	p := e.create(t, "p")
	tx, _ := e.h.Begin(p)
	o, _ := tx.Alloc(p, 64)
	e.h.Crash(nvmsim.DropAllPolicy())

	e2 := attach(t, as, store, emit.Opt)
	p2, _ := e2.h.Open("p")
	if err := e2.h.Recover(p2); err != nil {
		t.Fatal(err)
	}
	// The block from the interrupted allocation is reusable again.
	o2, _ := e2.h.Alloc(p2, 64)
	if o2 != o {
		t.Errorf("recovered allocation must be reclaimed: %v vs %v", o, o2)
	}
}

func TestBaseAndOptComputeIdenticalState(t *testing.T) {
	// The same program in BASE and OPT modes must produce bit-identical
	// pool contents; only the instruction streams differ — and OPT must
	// be much shorter (the paper's 43.9% dynamic-instruction reduction).
	run := func(mode emit.Mode) (*env, *Pool, oid.OID, uint64) {
		as := vm.NewAddressSpace(11)
		e := attach(t, as, NewStore(), mode)
		p := e.create(t, "p")
		root, err := e.h.Root(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		tx, _ := e.h.Begin(p)
		tx.AddRange(root, 64)
		ref, _ := e.h.Deref(root, isa.RZ)
		for i := uint32(0); i < 8; i++ {
			ref.Store64(i*8, uint64(i*i), isa.RZ)
		}
		tx.Commit()
		return e, p, root, e.h.Emit.Count()
	}
	eb, pb, rb, nBase := run(emit.Base)
	eo, po, ro, nOpt := run(emit.Opt)
	if rb != ro {
		t.Fatalf("allocation layout diverged: %v vs %v", rb, ro)
	}
	refB, _ := eb.h.Deref(rb, isa.RZ)
	refO, _ := eo.h.Deref(ro, isa.RZ)
	for i := uint32(0); i < 8; i++ {
		wb, _ := refB.Load64(i * 8)
		wo, _ := refO.Load64(i * 8)
		if wb.V != wo.V {
			t.Errorf("word %d: BASE %d vs OPT %d", i, wb.V, wo.V)
		}
	}
	if nOpt >= nBase {
		t.Errorf("OPT (%d insns) must be shorter than BASE (%d)", nOpt, nBase)
	}
	_ = pb
	_ = po
}

func TestSoftStatsExposedThroughHeap(t *testing.T) {
	e := newEnv(t, emit.Base)
	p := e.create(t, "p")
	o, _ := e.h.Alloc(p, 16)
	for i := 0; i < 10; i++ {
		e.h.Deref(o, isa.RZ)
	}
	s := e.h.Soft.Stats()
	if s.Calls == 0 || s.InsnsPerCall() < 17 {
		t.Errorf("soft stats = %+v", s)
	}
}

func TestStoreDelete(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p := e.create(t, "p")
	if err := e.store.Delete("p"); err == nil {
		t.Error("deleting an open pool must fail")
	}
	e.h.Close(p)
	if err := e.store.Delete("p"); err != nil {
		t.Fatal(err)
	}
	if err := e.store.Delete("p"); err == nil {
		t.Error("double delete must fail")
	}
	if e.store.Exists("p") {
		t.Error("deleted pool must not exist")
	}
}
