package crashtest

import (
	"fmt"

	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pds"
	"potgo/internal/pmem"
	"potgo/internal/tpcc"
)

// A Target is one crash-injection subject: it can build its initial durable
// state on a fresh heap, run a deterministic transactional workload, and —
// on a heap reopened over the crashed bytes — recover and verify its
// invariants. Targets are stateless descriptions; Build/Attach return the
// heap-bound Instance.
type Target interface {
	Name() string
	// Build creates the target's pools and initial state on a fresh heap.
	// The engine syncs all pools afterwards, so the built state is the
	// durable floor the adversary cannot take away.
	Build(h *pmem.Heap) (Instance, error)
	// Attach reopens the target's pools on a post-crash heap and runs log
	// recovery. It must not assume anything beyond what a committed
	// prefix of the workload guarantees.
	Attach(h *pmem.Heap) (Instance, error)
}

// Instance is a Target bound to one heap.
type Instance interface {
	// Run executes ops workload transactions.
	Run(ops int) error
	// Check verifies the target's invariants after recovery, knowing the
	// workload would have run at most ops transactions.
	Check(ops int) error
}

// Targets returns every built-in target: the five persistent structures,
// the allocator, and the durable TPC-C mix.
func Targets(seed uint64) []Target {
	out := []Target{}
	for _, k := range []string{"list", "bst", "rbt", "btree", "bplus"} {
		out = append(out, &pdsTarget{kind: k, seed: seed})
	}
	out = append(out, &allocTarget{seed: seed}, &tpccTarget{seed: seed})
	return out
}

// TargetByName resolves one target name ("list", "bst", "rbt", "btree",
// "bplus", "alloc", "tpcc").
func TargetByName(name string, seed uint64) (Target, error) {
	for _, t := range Targets(seed) {
		if t.Name() == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("crashtest: unknown target %q", name)
}

// mix64 is splitmix64: the deterministic op-stream generator. Stable across
// Go versions so replay tokens recorded in failure reports stay valid.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// poolCtx is the pds.Ctx of a single-pool target: the shared
// transactional core plus placement in that pool.
type poolCtx struct {
	pds.TxCtx
	p *pmem.Pool
}

func (c *poolCtx) Alloc(_ uint64, size uint32) (oid.OID, error) { return c.AllocIn(c.p, size) }

// --- persistent-structure targets ---

// The workload over every structure is the same: keySpace keys churned by
// seeded insert/remove ops, each op one transaction that also bumps a
// persistent op counter. Because the counter commits atomically with the
// op, the verifier can replay the op stream up to the recovered counter
// value and demand the structure match that model state exactly — not just
// "some plausible state".
const (
	pdsKeySpace = 48
	pdsSetupOps = 24
	setupSalt   = 0x5e7_0b5
	opSalt      = 0x09_0b5
)

func opFor(seed uint64, i int) (insert bool, key, val uint64) {
	r := mix64(seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15) ^ opSalt)
	key = r%pdsKeySpace + 1
	insert = (r>>16)&1 == 0
	val = r | 1
	return
}

func setupFor(seed uint64, i int) (key, val uint64) {
	r := mix64(seed ^ (uint64(i+1) * 0xbf58476d1ce4e5b9) ^ setupSalt)
	return r%pdsKeySpace + 1, r | 1
}

// pdsModel replays setup plus the first j workload ops logically.
func pdsModel(seed uint64, j int) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for i := 0; i < pdsSetupOps; i++ {
		k, v := setupFor(seed, i)
		m[k] = v
	}
	for i := 0; i < j; i++ {
		ins, k, v := opFor(seed, i)
		if ins {
			m[k] = v
		} else {
			delete(m, k)
		}
	}
	return m
}

// structOps adapts one pds structure to the generic churn workload.
type structOps interface {
	insert(c pds.Ctx, key, val uint64) error
	update(c pds.Ctx, key, val uint64) error
	remove(c pds.Ctx, key uint64) error
	get(c pds.Ctx, key uint64) (bool, uint64, error)
	// check verifies structure-shape invariants and returns the key count.
	check(c pds.Ctx) (int, error)
	// hasValues reports whether get returns comparable values.
	hasValues() bool
}

type pdsTarget struct {
	kind string
	seed uint64
}

func (t *pdsTarget) Name() string { return t.kind }

func (t *pdsTarget) poolName() string { return "ct-" + t.kind }

func (t *pdsTarget) bind(h *pmem.Heap, p *pmem.Pool) (*pdsInstance, error) {
	root, err := h.Root(p, 16)
	if err != nil {
		return nil, err
	}
	anchor := pds.NewCell(h, root.FieldAt(0))
	var ops structOps
	switch t.kind {
	case "list":
		ops = listOps{pds.NewList(anchor)}
	case "bst":
		ops = bstOps{pds.NewBST(anchor)}
	case "rbt":
		ops = rbtOps{pds.NewRBT(anchor)}
	case "btree":
		ops = btreeOps{pds.NewBTree(anchor)}
	case "bplus":
		ops = bplusOps{pds.NewBPlus(anchor)}
	default:
		return nil, fmt.Errorf("crashtest: unknown structure kind %q", t.kind)
	}
	return &pdsInstance{
		t:       t,
		h:       h,
		p:       p,
		ops:     ops,
		counter: root.FieldAt(8),
		ctx:     &poolCtx{TxCtx: pds.NewTxCtx(h), p: p},
	}, nil
}

func (t *pdsTarget) Build(h *pmem.Heap) (Instance, error) {
	p, err := h.CreateSized(t.poolName(), 1<<20, 128*1024)
	if err != nil {
		return nil, err
	}
	in, err := t.bind(h, p)
	if err != nil {
		return nil, err
	}
	for i := 0; i < pdsSetupOps; i++ {
		k, v := setupFor(t.seed, i)
		present, _, err := in.ops.get(in.ctx, k)
		if err != nil {
			return nil, err
		}
		if !present {
			if err := in.ops.insert(in.ctx, k, v); err != nil {
				return nil, err
			}
		} else if in.ops.hasValues() {
			if err := in.ops.update(in.ctx, k, v); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

func (t *pdsTarget) Attach(h *pmem.Heap) (Instance, error) {
	p, err := h.Open(t.poolName())
	if err != nil {
		return nil, err
	}
	if err := h.Recover(p); err != nil {
		return nil, err
	}
	return t.bind(h, p)
}

type pdsInstance struct {
	t       *pdsTarget
	h       *pmem.Heap
	p       *pmem.Pool
	ops     structOps
	counter oid.OID
	ctx     *poolCtx
}

func (in *pdsInstance) setCounter(v uint64) error {
	if err := in.ctx.Touch(in.counter, 8); err != nil {
		return err
	}
	ref, err := in.h.Deref(in.counter, isa.RZ)
	if err != nil {
		return err
	}
	return ref.Store64(0, v, isa.RZ)
}

func (in *pdsInstance) readCounter() (uint64, error) {
	ref, err := in.h.Deref(in.counter, isa.RZ)
	if err != nil {
		return 0, err
	}
	w, err := ref.Load64(0)
	return w.V, err
}

func (in *pdsInstance) Run(ops int) error {
	for i := 0; i < ops; i++ {
		if err := in.doOp(i); err != nil {
			return fmt.Errorf("%s op %d: %w", in.t.kind, i, err)
		}
	}
	return nil
}

func (in *pdsInstance) doOp(i int) error {
	ins, k, v := opFor(in.t.seed, i)
	if err := in.ctx.Begin(in.p); err != nil {
		return err
	}
	present, _, err := in.ops.get(in.ctx, k)
	if err != nil {
		return err
	}
	switch {
	case ins && !present:
		err = in.ops.insert(in.ctx, k, v)
	case ins && present && in.ops.hasValues():
		err = in.ops.update(in.ctx, k, v)
	case !ins && present:
		err = in.ops.remove(in.ctx, k)
	}
	if err != nil {
		return err
	}
	if err := in.setCounter(uint64(i + 1)); err != nil {
		return err
	}
	return in.ctx.Commit()
}

func (in *pdsInstance) Check(ops int) error {
	j, err := in.readCounter()
	if err != nil {
		return err
	}
	if j > uint64(ops) {
		return fmt.Errorf("%s: recovered op counter %d exceeds the %d ops run", in.t.kind, j, ops)
	}
	model := pdsModel(in.t.seed, int(j))
	n, err := in.ops.check(in.ctx)
	if err != nil {
		return fmt.Errorf("%s after %d committed ops: %w", in.t.kind, j, err)
	}
	if n != len(model) {
		return fmt.Errorf("%s after %d committed ops: %d keys, model has %d", in.t.kind, j, n, len(model))
	}
	for k := uint64(1); k <= pdsKeySpace; k++ {
		present, val, err := in.ops.get(in.ctx, k)
		if err != nil {
			return err
		}
		want, wantPresent := model[k]
		if present != wantPresent {
			return fmt.Errorf("%s after %d committed ops: key %d present=%v, model says %v",
				in.t.kind, j, k, present, wantPresent)
		}
		if present && in.ops.hasValues() && val != want {
			return fmt.Errorf("%s after %d committed ops: key %d = %#x, model says %#x",
				in.t.kind, j, k, val, want)
		}
	}
	return in.h.CheckPool(in.p)
}

// --- structure adapters ---

type listOps struct{ l *pds.List }

func (a listOps) insert(c pds.Ctx, k, _ uint64) error { return a.l.Insert(c, k) }
func (a listOps) update(c pds.Ctx, _, _ uint64) error { return nil }
func (a listOps) remove(c pds.Ctx, k uint64) error    { _, err := a.l.Remove(c, k); return err }
func (a listOps) hasValues() bool                     { return false }
func (a listOps) get(c pds.Ctx, k uint64) (bool, uint64, error) {
	o, err := a.l.Find(c, k)
	return o != oid.Null, 0, err
}
func (a listOps) check(c pds.Ctx) (int, error) {
	keys, err := a.l.Keys(c)
	if err != nil {
		return 0, err
	}
	seen := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			return 0, fmt.Errorf("list: duplicate key %d", k)
		}
		seen[k] = true
	}
	return len(keys), nil
}

type bstOps struct{ t *pds.BST }

func (a bstOps) insert(c pds.Ctx, k, _ uint64) error { return a.t.Insert(c, k) }
func (a bstOps) update(c pds.Ctx, _, _ uint64) error { return nil }
func (a bstOps) remove(c pds.Ctx, k uint64) error    { _, err := a.t.Remove(c, k); return err }
func (a bstOps) hasValues() bool                     { return false }
func (a bstOps) get(c pds.Ctx, k uint64) (bool, uint64, error) {
	o, err := a.t.Find(c, k)
	return o != oid.Null, 0, err
}
func (a bstOps) check(c pds.Ctx) (int, error) {
	keys, err := a.t.InOrder(c)
	if err != nil {
		return 0, err
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return 0, fmt.Errorf("bst: in-order not strictly increasing at %d (%d, %d)",
				i, keys[i-1], keys[i])
		}
	}
	return len(keys), nil
}

type rbtOps struct{ t *pds.RBT }

func (a rbtOps) insert(c pds.Ctx, k, _ uint64) error { return a.t.Insert(c, k) }
func (a rbtOps) update(c pds.Ctx, _, _ uint64) error { return nil }
func (a rbtOps) remove(c pds.Ctx, k uint64) error    { _, err := a.t.Remove(c, k); return err }
func (a rbtOps) hasValues() bool                     { return false }
func (a rbtOps) get(c pds.Ctx, k uint64) (bool, uint64, error) {
	o, err := a.t.Find(c, k)
	return o != oid.Null, 0, err
}

// check: RBT.CheckInvariants returns the black-height, not a key count, so
// the count comes from the in-order walk.
func (a rbtOps) check(c pds.Ctx) (int, error) {
	if _, err := a.t.CheckInvariants(c); err != nil {
		return 0, err
	}
	keys, err := a.t.InOrder(c)
	if err != nil {
		return 0, err
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return 0, fmt.Errorf("rbt: in-order not strictly increasing at %d", i)
		}
	}
	return len(keys), nil
}

type btreeOps struct{ t *pds.BTree }

func (a btreeOps) insert(c pds.Ctx, k, _ uint64) error { return a.t.Insert(c, k) }
func (a btreeOps) update(c pds.Ctx, _, _ uint64) error { return nil }
func (a btreeOps) remove(c pds.Ctx, k uint64) error    { _, err := a.t.Remove(c, k); return err }
func (a btreeOps) hasValues() bool                     { return false }
func (a btreeOps) get(c pds.Ctx, k uint64) (bool, uint64, error) {
	ok, err := a.t.Find(c, k)
	return ok, 0, err
}
func (a btreeOps) check(c pds.Ctx) (int, error) { return a.t.CheckInvariants(c) }

type bplusOps struct{ t *pds.BPlus }

func (a bplusOps) insert(c pds.Ctx, k, v uint64) error { return a.t.Insert(c, k, v) }
func (a bplusOps) update(c pds.Ctx, k, v uint64) error { _, err := a.t.Update(c, k, v); return err }
func (a bplusOps) remove(c pds.Ctx, k uint64) error    { _, err := a.t.Remove(c, k); return err }
func (a bplusOps) hasValues() bool                     { return true }
func (a bplusOps) get(c pds.Ctx, k uint64) (bool, uint64, error) {
	v, ok, err := a.t.Find(c, k)
	return ok, v, err
}
func (a bplusOps) check(c pds.Ctx) (int, error) { return a.t.CheckInvariants(c) }

// --- allocator target ---

// The allocator target churns transactional alloc/free through a persistent
// slot table in the pool root. Each occupied slot holds the ObjectID of a
// live block whose first word carries a seeded canary, so the verifier can
// prove recovered blocks are the right blocks — aliasing with a freed and
// reallocated block, a corrupt free list, or a lost free all surface either
// here or in CheckPool's structural sweep.
const (
	allocSlots = 12
	allocSalt  = 0xa110c
)

type allocTarget struct{ seed uint64 }

func (t *allocTarget) Name() string { return "alloc" }

type allocSlotModel struct {
	occupied bool
	canary   uint64
}

func allocOpFor(seed uint64, i int) (slot int, sizeSel, canary uint64) {
	r := mix64(seed ^ (uint64(i+1) * 0x94d049bb133111eb) ^ allocSalt)
	return int(r % allocSlots), (r >> 8) % 3, r | 1
}

func allocModel(seed uint64, j int) [allocSlots]allocSlotModel {
	var m [allocSlots]allocSlotModel
	for i := 0; i < j; i++ {
		slot, _, canary := allocOpFor(seed, i)
		if m[slot].occupied {
			m[slot] = allocSlotModel{}
		} else {
			m[slot] = allocSlotModel{occupied: true, canary: canary}
		}
	}
	return m
}

type allocInstance struct {
	t    *allocTarget
	h    *pmem.Heap
	p    *pmem.Pool
	root oid.OID
}

func (t *allocTarget) Build(h *pmem.Heap) (Instance, error) {
	p, err := h.CreateSized("ct-alloc", 1<<20, 128*1024)
	if err != nil {
		return nil, err
	}
	root, err := h.Root(p, 8+allocSlots*8)
	if err != nil {
		return nil, err
	}
	return &allocInstance{t: t, h: h, p: p, root: root}, nil
}

func (t *allocTarget) Attach(h *pmem.Heap) (Instance, error) {
	p, err := h.Open("ct-alloc")
	if err != nil {
		return nil, err
	}
	if err := h.Recover(p); err != nil {
		return nil, err
	}
	root, err := h.Root(p, 8+allocSlots*8)
	if err != nil {
		return nil, err
	}
	return &allocInstance{t: t, h: h, p: p, root: root}, nil
}

func (in *allocInstance) slotOID(slot int) oid.OID { return in.root.FieldAt(uint32(8 + slot*8)) }

func (in *allocInstance) read64At(o oid.OID) (uint64, error) {
	ref, err := in.h.Deref(o, isa.RZ)
	if err != nil {
		return 0, err
	}
	w, err := ref.Load64(0)
	return w.V, err
}

func (in *allocInstance) Run(ops int) error {
	for i := 0; i < ops; i++ {
		if err := in.doOp(i); err != nil {
			return fmt.Errorf("alloc op %d: %w", i, err)
		}
	}
	return nil
}

func (in *allocInstance) doOp(i int) error {
	slot, sizeSel, canary := allocOpFor(in.t.seed, i)
	tx, err := in.h.Begin(in.p)
	if err != nil {
		return err
	}
	cur, err := in.read64At(in.slotOID(slot))
	if err != nil {
		return err
	}
	if err := tx.AddRange(in.root, 8+allocSlots*8); err != nil {
		return err
	}
	rootRef, err := in.h.Deref(in.root, isa.RZ)
	if err != nil {
		return err
	}
	if cur == 0 {
		o, err := tx.Alloc(in.p, 16<<sizeSel)
		if err != nil {
			return err
		}
		blk, err := in.h.Deref(o, isa.RZ)
		if err != nil {
			return err
		}
		if err := blk.Store64(0, canary, isa.RZ); err != nil {
			return err
		}
		if err := rootRef.Store64(uint32(8+slot*8), uint64(o), isa.RZ); err != nil {
			return err
		}
	} else {
		if err := tx.Free(oid.OID(cur)); err != nil {
			return err
		}
		if err := rootRef.Store64(uint32(8+slot*8), 0, isa.RZ); err != nil {
			return err
		}
	}
	if err := rootRef.Store64(0, uint64(i+1), isa.RZ); err != nil {
		return err
	}
	return tx.Commit()
}

func (in *allocInstance) Check(ops int) error {
	j, err := in.read64At(in.root)
	if err != nil {
		return err
	}
	if j > uint64(ops) {
		return fmt.Errorf("alloc: recovered op counter %d exceeds the %d ops run", j, ops)
	}
	model := allocModel(in.t.seed, int(j))
	seen := make(map[uint64]bool)
	for slot := 0; slot < allocSlots; slot++ {
		cur, err := in.read64At(in.slotOID(slot))
		if err != nil {
			return err
		}
		if (cur != 0) != model[slot].occupied {
			return fmt.Errorf("alloc after %d committed ops: slot %d occupied=%v, model says %v",
				j, slot, cur != 0, model[slot].occupied)
		}
		if cur == 0 {
			continue
		}
		if seen[cur] {
			return fmt.Errorf("alloc after %d committed ops: object %#x in two slots", j, cur)
		}
		seen[cur] = true
		canary, err := in.read64At(oid.OID(cur))
		if err != nil {
			return fmt.Errorf("alloc after %d committed ops: slot %d: %w", j, slot, err)
		}
		if canary != model[slot].canary {
			return fmt.Errorf("alloc after %d committed ops: slot %d canary %#x, model says %#x",
				j, slot, canary, model[slot].canary)
		}
	}
	return in.h.CheckPool(in.p)
}

// --- TPC-C target ---

// tpccTarget runs the durable-mode transaction mix over a down-scaled
// database and verifies the spec's consistency conditions: any crash must
// leave some prefix of committed transactions.
type tpccTarget struct{ seed uint64 }

func (t *tpccTarget) Name() string { return "tpcc" }

func (t *tpccTarget) config() tpcc.Config {
	return tpcc.Config{
		Warehouses:               1,
		Districts:                2,
		CustomersPerDistrict:     20,
		Items:                    40,
		InitialOrdersPerDistrict: 8,
		UndeliveredPerDistrict:   3,
		Seed:                     int64(t.seed),
		Durable:                  true,
	}
}

type tpccInstance struct {
	h  *pmem.Heap
	db *tpcc.DB
}

func (t *tpccTarget) Build(h *pmem.Heap) (Instance, error) {
	db, err := tpcc.NewDB(h, t.config(), tpcc.PlaceAll)
	if err != nil {
		return nil, err
	}
	return &tpccInstance{h: h, db: db}, nil
}

func (t *tpccTarget) Attach(h *pmem.Heap) (Instance, error) {
	db, err := tpcc.AttachDB(h, t.config(), tpcc.PlaceAll)
	if err != nil {
		return nil, err
	}
	return &tpccInstance{h: h, db: db}, nil
}

func (in *tpccInstance) Run(ops int) error { return in.db.RunMix(ops) }

func (in *tpccInstance) Check(int) error {
	if err := in.h.CheckAll(); err != nil {
		return err
	}
	return in.db.CheckConsistency()
}
