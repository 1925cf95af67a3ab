package tpcc

import (
	"fmt"
	"math/rand"

	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pds"
	"potgo/internal/pmem"
)

// Placement mirrors the paper's TPCC_ALL / TPCC_EACH pool usage patterns
// (Table 6).
type Placement int

const (
	// PlaceAll stores every B+ tree and every row in one pool.
	PlaceAll Placement = iota
	// PlaceEach gives each B+-tree-based structure (table) its own pool.
	PlaceEach
)

func (p Placement) String() string {
	if p == PlaceAll {
		return "TPCC_ALL"
	}
	return "TPCC_EACH"
}

// The tables, in anchor-cell order. Every table is a B+ tree keyed by an
// encoded composite key; tree values are the ObjectIDs of row objects
// allocated in the same pool.
var tables = []string{
	"warehouse", "district", "customer", "history",
	"order", "neworder", "orderline", "item", "stock", "ordercust",
	"custname",
}

// Row sizes (bytes of 8-byte fields).
const (
	warehouseRowBytes = 16 // ytd, tax
	districtRowBytes  = 24 // nextOID, ytd, tax
	customerRowBytes  = 32 // balance, ytdPayment, paymentCnt, deliveryCnt
	orderRowBytes     = 32 // cID, olCnt, carrier, entryD
	newOrderRowBytes  = 16 // oID, pad
	orderLineRowBytes = 32 // iID, qty, amount, deliveryD
	itemRowBytes      = 16 // price, imID
	stockRowBytes     = 32 // qty, ytd, orderCnt, remoteCnt
	historyRowBytes   = 24 // cID, dID, amount
)

// Key encodings. All keys are qualified by the warehouse id (≤ 255), then
// the district id (≤ 15); order ids fit 32 bits, customers 20, lines 8.
func warehouseKey(w int) uint64 { return uint64(w) }
func districtKey(w, d int) uint64 {
	return uint64(w)<<8 | uint64(d)
}
func customerKey(w, d, c int) uint64 {
	return uint64(w)<<32 | uint64(d)<<24 | uint64(c)
}
func orderKey(w, d, o int) uint64 {
	return uint64(w)<<40 | uint64(d)<<36 | uint64(o)
}
func newOrderKey(w, d, o int) uint64 { return orderKey(w, d, o) }
func orderLineKey(w, d, o, ln int) uint64 {
	return uint64(w)<<56 | uint64(d)<<52 | uint64(o)<<8 | uint64(ln)
}
func stockKey(w, i int) uint64 { return uint64(w)<<32 | uint64(i) }

// orderCustKey indexes orders by (warehouse, district, customer) with the
// order id complemented so that a scan finds the latest order first.
func orderCustKey(w, d, c, o int) uint64 {
	return uint64(w)<<56 | uint64(d)<<48 | uint64(c)<<24 | uint64(0xFFFFFF-o)
}

// custNameKey indexes customers by (warehouse, district, last-name id) so
// Payment and Order-Status can select customers by last name (spec
// 2.5.2.2): scan the matching run, pick the middle customer.
func custNameKey(w, d, last, c int) uint64 {
	return uint64(w)<<48 | uint64(d)<<40 | uint64(last)<<20 | uint64(c)
}

// lastNameOf deterministically assigns a last-name id to a customer, using
// the spec's rule: the first 1000 customers of a district get ids 0..999 in
// order (guaranteeing every name exists), the rest draw NURand(255).
func (db *DB) lastNameOf(c int) int {
	if c <= 1000 {
		return c - 1
	}
	return db.nur.nu(255, db.nur.cLast, 0, 999)
}

// Stats counts executed transactions.
type Stats struct {
	Counts    [5]uint64
	Rollbacks uint64
}

// Total returns the number of committed transactions.
func (s Stats) Total() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// DB is a populated TPC-C database bound to a heap.
type DB struct {
	h     *pmem.Heap
	cfg   Config
	place Placement

	master *pmem.Pool
	pools  map[string]*pmem.Pool
	trees  map[string]*pds.BPlus

	rng        *rand.Rand
	nur        *nuRand
	historySeq uint64
	logSeq     uint64
	stats      Stats

	// tx is the transactional core every tableCtx shares. In the paper's
	// measured configuration no transaction is ever bound, so Touch is a
	// no-op: per §5.2, TPC-C keeps "its own failure-safe logging
	// implementation" — a logical transaction log written at commit (see
	// db.commitTx) — rather than the library's per-object undo snapshots.
	// With Config.Durable every read-write transaction binds one, and each
	// first touch of an object records an undo image via Tx.AddRange.
	tx pds.TxCtx
}

// tableCtx is the pds.Ctx of one table: the database's shared
// transactional core plus placement in the table's pool.
type tableCtx struct {
	*pds.TxCtx
	pool *pmem.Pool
}

func (c tableCtx) Alloc(_ uint64, size uint32) (oid.OID, error) { return c.AllocIn(c.pool, size) }

// poolBytes estimates the capacity needed for a table (with margin).
func poolBytes(cfg Config, table string) uint64 {
	rows := func(n int, rowBytes uint64) uint64 {
		// Row block + amortized tree node share per key.
		return uint64(n) * (rowBytes + 16 + 64)
	}
	w := cfg.Warehouses
	orders := w * cfg.Districts * cfg.InitialOrdersPerDistrict
	var need uint64
	switch table {
	case "warehouse":
		need = rows(w, warehouseRowBytes)
	case "district":
		need = rows(w*cfg.Districts, districtRowBytes)
	case "customer", "custname":
		need = rows(w*cfg.Districts*cfg.CustomersPerDistrict, customerRowBytes)
	case "history":
		need = rows(w*cfg.Districts*cfg.CustomersPerDistrict+8192, historyRowBytes)
	case "order", "ordercust":
		need = rows(orders+8192, orderRowBytes)
	case "neworder":
		need = rows(w*cfg.Districts*cfg.UndeliveredPerDistrict+8192, newOrderRowBytes)
	case "orderline":
		need = rows((orders+8192)*13, orderLineRowBytes)
	case "item":
		need = rows(cfg.Items, itemRowBytes)
	case "stock":
		need = rows(w*cfg.Items, stockRowBytes)
	}
	need = need*3/2 + 1<<20
	return (need + 4095) &^ 4095
}

// NewDB creates the pools and empty trees and populates the database per
// the configuration. Population runs with instruction emission paused (the
// measured region is the transaction mix, as in the paper's "generate 1
// warehouse and perform 1000 transactions").
func NewDB(h *pmem.Heap, cfg Config, place Placement) (*DB, error) {
	if cfg.Warehouses <= 0 || cfg.Warehouses > 255 ||
		cfg.Districts <= 0 || cfg.Districts > 15 ||
		cfg.Items <= 0 || cfg.CustomersPerDistrict <= 0 {
		return nil, fmt.Errorf("tpcc: invalid config %+v", cfg)
	}
	db := &DB{
		h:     h,
		cfg:   cfg,
		place: place,
		pools: make(map[string]*pmem.Pool),
		trees: make(map[string]*pds.BPlus),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		tx:    pds.NewTxCtx(h),
	}
	db.nur = newNuRand(db.rng)

	const logBytes = 512 * 1024
	if place == PlaceAll {
		var total uint64
		for _, t := range tables {
			total += poolBytes(cfg, t)
		}
		p, err := h.CreateSized("tpcc", total+logBytes+1<<20, logBytes)
		if err != nil {
			return nil, err
		}
		db.master = p
		for _, t := range tables {
			db.pools[t] = p
		}
	} else {
		m, err := h.CreateSized("tpcc-master", 1<<20, logBytes)
		if err != nil {
			return nil, err
		}
		db.master = m
		for _, t := range tables {
			p, err := h.CreateSized("tpcc-"+t, poolBytes(cfg, t), 4096)
			if err != nil {
				return nil, err
			}
			db.pools[t] = p
		}
	}

	// Anchor cells live in the master pool's root object.
	root, err := h.Root(db.master, uint32(len(tables))*8)
	if err != nil {
		return nil, err
	}
	for i, t := range tables {
		db.trees[t] = pds.NewBPlus(pds.NewCell(h, root.FieldAt(uint32(i)*8)))
	}

	h.Emit.Pause()
	err = db.populate()
	h.Emit.Resume()
	if err != nil {
		return nil, err
	}
	if cfg.Durable {
		// Population ran outside any transaction, so nothing has drained
		// the cache model; flush it all so the initial database is the
		// durable pre-state a crash can fall back to.
		if err := h.SyncAll(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// AttachDB reopens an existing TPC-C database — the post-crash path. The
// config and placement must match the NewDB that built it. Attach opens the
// pools, replays the master pool's undo/redo log if the crash left one, and
// rebinds the trees to their persistent anchors; it does not populate.
func AttachDB(h *pmem.Heap, cfg Config, place Placement) (*DB, error) {
	db := &DB{
		h:     h,
		cfg:   cfg,
		place: place,
		pools: make(map[string]*pmem.Pool),
		trees: make(map[string]*pds.BPlus),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		tx:    pds.NewTxCtx(h),
	}
	db.nur = newNuRand(db.rng)
	// History rows surviving the crash used sequence numbers from the
	// previous incarnation; restart well past any of them so post-recovery
	// Payments can't collide with existing history keys.
	db.historySeq = 1 << 40

	if place == PlaceAll {
		p, err := h.Open("tpcc")
		if err != nil {
			return nil, err
		}
		db.master = p
		for _, t := range tables {
			db.pools[t] = p
		}
	} else {
		m, err := h.Open("tpcc-master")
		if err != nil {
			return nil, err
		}
		db.master = m
		for _, t := range tables {
			p, err := h.Open("tpcc-" + t)
			if err != nil {
				return nil, err
			}
			db.pools[t] = p
		}
	}

	// Recover runs after every pool is open: logged records may reference
	// per-table pools. A clean log makes this a no-op.
	if err := h.Recover(db.master); err != nil {
		return nil, err
	}

	root, err := h.Root(db.master, uint32(len(tables))*8)
	if err != nil {
		return nil, err
	}
	for i, t := range tables {
		db.trees[t] = pds.NewBPlus(pds.NewCell(h, root.FieldAt(uint32(i)*8)))
	}
	return db, nil
}

// ctx returns the allocation context for a table.
func (db *DB) ctx(table string) tableCtx { return tableCtx{TxCtx: &db.tx, pool: db.pools[table]} }

// tree returns a table's B+ tree.
func (db *DB) tree(table string) *pds.BPlus { return db.trees[table] }

// Stats returns the transaction counters.
func (db *DB) Stats() Stats { return db.stats }

// Heap exposes the underlying heap.
//
//potlint:allow unusedexport kept for the durable TPC-C crash tests, which arm its persistence domain
func (db *DB) Heap() *pmem.Heap { return db.h }

// --- row helpers ---

// newRow allocates and initializes a row object in the table's pool and
// returns its ObjectID.
func (db *DB) newRow(table string, fields []uint64) (oid.OID, error) {
	ctx := db.ctx(table)
	o, err := ctx.Alloc(0, uint32(len(fields))*8)
	if err != nil {
		return oid.Null, err
	}
	ref, err := db.h.Deref(o, isa.RZ)
	if err != nil {
		return oid.Null, err
	}
	for i, f := range fields {
		if err := ref.Store64(uint32(i)*8, f, isa.RZ); err != nil {
			return oid.Null, err
		}
	}
	return o, nil
}

// readRow loads n consecutive 8-byte fields of a row.
func (db *DB) readRow(o oid.OID, n int) ([]uint64, error) {
	ref, err := db.h.Deref(o, isa.RZ)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	for i := range out {
		w, err := ref.Load64(uint32(i) * 8)
		if err != nil {
			return nil, err
		}
		out[i] = w.V
	}
	return out, nil
}

// updateRow stores one field of a row.
func (db *DB) updateRow(table string, o oid.OID, rowBytes uint32, fieldOff uint32, v uint64) error {
	return db.updateRowFields(table, o, rowBytes, fieldUpdate{fieldOff, v})
}

type fieldUpdate struct {
	Off uint32
	V   uint64
}

// updateRowFields dereferences the row once and stores several fields — the
// natural compilation of `row->a = ...; row->b = ...`.
func (db *DB) updateRowFields(table string, o oid.OID, rowBytes uint32, ups ...fieldUpdate) error {
	if err := db.ctx(table).Touch(o, rowBytes); err != nil {
		return err
	}
	ref, err := db.h.Deref(o, isa.RZ)
	if err != nil {
		return err
	}
	for _, u := range ups {
		if err := ref.Store64(u.Off, u.V, isa.RZ); err != nil {
			return err
		}
	}
	return nil
}

// lookupRow finds a key in a table and returns the row's ObjectID.
func (db *DB) lookupRow(table string, key uint64) (oid.OID, bool, error) {
	v, ok, err := db.tree(table).Find(db.ctx(table), key)
	return oid.OID(v), ok, err
}

// insertRow creates the row and indexes it under key.
func (db *DB) insertRow(table string, key uint64, fields []uint64) (oid.OID, error) {
	o, err := db.newRow(table, fields)
	if err != nil {
		return oid.Null, err
	}
	if err := db.tree(table).Insert(db.ctx(table), key, uint64(o)); err != nil {
		return oid.Null, err
	}
	return o, nil
}

// TPC-C's own failure-safe logging (paper §5.2: "we retain TPC-C's own
// failure-safe logging implementation without modification"): each committed
// transaction appends one compact logical record — transaction type and the
// keys it touched — to a circular log region in the master pool and persists
// it with CLWB + SFENCE. The record is written through an ObjectID
// reference, so in BASE it costs one oid_direct and in OPT it uses nvst —
// logging is one of the library paths that benefits from the hardware
// (paper §3.3). Rollback cases (the 1% invalid-item New-Order) validate
// before mutating, so no undo is ever needed.
const logicalRecordWords = 16

func (db *DB) beginTx() error {
	if !db.cfg.Durable {
		return nil
	}
	return db.tx.Begin(db.master)
}

// abortTx unwinds a transaction that validated late (the 1% invalid-item
// New-Order rolls back after its first writes in durable mode).
func (db *DB) abortTx() error {
	if !db.cfg.Durable {
		return nil
	}
	return db.tx.Abort()
}

func (db *DB) commitTx() error {
	if db.cfg.Durable {
		// The undo log subsumes the logical record — and shares the master
		// pool's log region with it, so writing both would corrupt the
		// record count the next recovery reads.
		return db.tx.Commit()
	}
	p := db.master
	span := uint32(logicalRecordWords * 8)
	capacity := uint32(p.LogBytes()) / span
	if capacity == 0 {
		return fmt.Errorf("tpcc: master log region too small")
	}
	off := uint32(pmem.LogStart) + (uint32(db.logSeq)%capacity)*span
	db.logSeq++
	rec, err := db.h.Deref(p.OID(off), isa.RZ)
	if err != nil {
		return err
	}
	for w := uint32(0); w < logicalRecordWords; w++ {
		if err := rec.Store64(w*8, db.logSeq<<8|uint64(w), isa.RZ); err != nil {
			return err
		}
	}
	return db.h.Persist(p.OID(off), span)
}
