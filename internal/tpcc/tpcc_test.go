package tpcc

import (
	"potgo/internal/randtest"
	"testing"

	"potgo/internal/emit"
	"potgo/internal/pmem"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

func newDB(t *testing.T, mode emit.Mode, place Placement, seed int64) (*DB, *emit.Emitter) {
	t.Helper()
	as := vm.NewAddressSpace(seed)
	em := emit.New(trace.Discard{}, mode)
	var soft *emit.SoftTranslator
	if mode == emit.Base {
		var err error
		soft, err = emit.NewSoftTranslator(em, as, 1024)
		if err != nil {
			t.Fatal(err)
		}
	}
	h, err := pmem.NewHeap(as, pmem.NewStore(), em, soft)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(h, TestConfig(seed), place)
	if err != nil {
		t.Fatal(err)
	}
	return db, em
}

func TestPopulationIsConsistent(t *testing.T) {
	db, em := newDB(t, emit.Opt, PlaceAll, 1)
	// Population is excluded from the measured region: only the pool and
	// root setup emit (a fixed handful of instructions).
	if em.Count() > 1000 {
		t.Errorf("population emitted %d instructions despite being paused", em.Count())
	}
	if em.Dropped() == 0 {
		t.Error("population should have executed (and dropped) instructions")
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMixRunsAndStaysConsistent(t *testing.T) {
	db, em := newDB(t, emit.Opt, PlaceAll, 2)
	if err := db.RunMix(120); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Total() == 0 {
		t.Fatal("no transactions committed")
	}
	// Every transaction type must have run in 120 draws.
	for i, n := range s.Counts {
		if n == 0 {
			t.Errorf("transaction type %v never ran", TxType(i))
		}
	}
	if em.Count() == 0 {
		t.Error("the mix must emit instructions")
	}
}

func TestEachPlacement(t *testing.T) {
	db, _ := newDB(t, emit.Opt, PlaceEach, 3)
	if err := db.RunMix(60); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Tables really live in distinct pools.
	pools := map[uint32]bool{}
	for _, tbl := range tables {
		pools[uint32(db.pools[tbl].ID())] = true
	}
	if len(pools) != len(tables) {
		t.Errorf("TPCC_EACH uses %d pools for %d tables", len(pools), len(tables))
	}
	// And under PlaceAll they share one.
	dbAll, _ := newDB(t, emit.Opt, PlaceAll, 3)
	poolsAll := map[uint32]bool{}
	for _, tbl := range tables {
		poolsAll[uint32(dbAll.pools[tbl].ID())] = true
	}
	if len(poolsAll) != 1 {
		t.Errorf("TPCC_ALL uses %d pools", len(poolsAll))
	}
}

func TestBaseOptEquivalence(t *testing.T) {
	dbB, emB := newDB(t, emit.Base, PlaceAll, 4)
	dbO, emO := newDB(t, emit.Opt, PlaceAll, 4)
	if err := dbB.RunMix(60); err != nil {
		t.Fatal(err)
	}
	if err := dbO.RunMix(60); err != nil {
		t.Fatal(err)
	}
	sb, so := dbB.Stats(), dbO.Stats()
	if sb != so {
		t.Errorf("BASE stats %+v != OPT stats %+v", sb, so)
	}
	if err := dbB.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := dbO.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if emO.Count() >= emB.Count() {
		t.Errorf("OPT (%d insns) must beat BASE (%d)", emO.Count(), emB.Count())
	}
}

func TestNewOrderRollbacks(t *testing.T) {
	db, _ := newDB(t, emit.Opt, PlaceAll, 5)
	// Run enough new-orders that the 1% rollback fires.
	for i := 0; i < 400; i++ {
		if err := db.NewOrder(); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Rollbacks == 0 {
		t.Error("1% rollback never fired in 400 new-orders")
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatalf("rollbacks corrupted the database: %v", err)
	}
}

func TestDeliveryDrainsNewOrders(t *testing.T) {
	db, _ := newDB(t, emit.Opt, PlaceAll, 6)
	before, err := db.tree("neworder").Scan(db.ctx("neworder"), 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("population must leave undelivered orders")
	}
	if err := db.Delivery(); err != nil {
		t.Fatal(err)
	}
	after, err := db.tree("neworder").Scan(db.ctx("neworder"), 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	want := len(before) - db.cfg.Districts
	if len(after) != want {
		t.Errorf("delivery removed %d markers, want %d", len(before)-len(after), db.cfg.Districts)
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPaymentMovesMoney(t *testing.T) {
	db, _ := newDB(t, emit.Opt, PlaceAll, 7)
	wRow, _, _ := db.lookupRow("warehouse", 1)
	before, _ := db.readRow(wRow, 2)
	for i := 0; i < 10; i++ {
		if err := db.Payment(); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := db.readRow(wRow, 2)
	if after[0] <= before[0] {
		t.Error("payments must grow W_YTD")
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyTransactionsEmitNoStoresToRows(t *testing.T) {
	db, _ := newDB(t, emit.Opt, PlaceAll, 8)
	if err := db.OrderStatus(); err != nil {
		t.Fatal(err)
	}
	if err := db.StockLevel(); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	as := vm.NewAddressSpace(1)
	em := emit.New(trace.Discard{}, emit.Opt)
	h, _ := pmem.NewHeap(as, pmem.NewStore(), em, nil)
	if _, err := NewDB(h, Config{}, PlaceAll); err == nil {
		t.Error("zero config must be rejected")
	}
}

func TestPlacementString(t *testing.T) {
	if PlaceAll.String() != "TPCC_ALL" || PlaceEach.String() != "TPCC_EACH" {
		t.Error("placement names")
	}
}

func TestTxTypeString(t *testing.T) {
	names := []string{"NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"}
	for i, want := range names {
		if TxType(i).String() != want {
			t.Errorf("TxType(%d) = %s", i, TxType(i))
		}
	}
	if TxType(9).String() != "Unknown" {
		t.Error("unknown type")
	}
}

func TestMixDistribution(t *testing.T) {
	rng := randtest.New(t, 1)
	var counts [5]int
	const n = 20000
	for i := 0; i < n; i++ {
		counts[pickTx(rng)]++
	}
	frac := func(t TxType) float64 { return float64(counts[t]) / n }
	if f := frac(PaymentTx); f < 0.40 || f > 0.46 {
		t.Errorf("payment fraction = %v, want ~0.43", f)
	}
	if f := frac(NewOrderTx); f < 0.42 || f > 0.48 {
		t.Errorf("new-order fraction = %v, want ~0.45", f)
	}
	for _, tx := range []TxType{OrderStatusTx, DeliveryTx, StockLevelTx} {
		if f := frac(tx); f < 0.03 || f > 0.05 {
			t.Errorf("%v fraction = %v, want ~0.04", tx, f)
		}
	}
}

func TestNURandRange(t *testing.T) {
	rng := randtest.New(t, 2)
	nur := newNuRand(rng)
	for i := 0; i < 5000; i++ {
		if c := nur.CustomerID(3000); c < 1 || c > 3000 {
			t.Fatalf("CustomerID out of range: %d", c)
		}
		if it := nur.ItemID(100000); it < 1 || it > 100000 {
			t.Fatalf("ItemID out of range: %d", it)
		}
	}
}

func TestSpecConfigMatchesPaper(t *testing.T) {
	cfg := SpecConfig(1)
	if cfg.Districts != 10 || cfg.CustomersPerDistrict != 3000 ||
		cfg.Items != 100000 || cfg.InitialOrdersPerDistrict != 3000 ||
		cfg.UndeliveredPerDistrict != 900 {
		t.Errorf("SpecConfig diverges from TPC-C spec: %+v", cfg)
	}
}

func TestCustomerByLastName(t *testing.T) {
	db, _ := newDB(t, emit.Opt, PlaceAll, 11)
	// TestConfig has 60 customers/district: customers 1..60 carry last
	// names 0..59, so every id below 60 resolves.
	for last := 0; last < db.cfg.CustomersPerDistrict; last += 7 {
		c, err := db.customerByLastName(1, 1, last)
		if err != nil {
			t.Fatal(err)
		}
		if c == 0 {
			t.Fatalf("last name %d has no customers", last)
		}
		if got := db.lastNameOf(c); got != last {
			t.Fatalf("customer %d has last name %d, want %d", c, got, last)
		}
	}
	// A name beyond the population resolves to nobody.
	if c, err := db.customerByLastName(1, 1, 900); err != nil || c != 0 {
		t.Fatalf("phantom name resolved to %d (%v)", c, err)
	}
}

func TestPaymentByNameKeepsConsistency(t *testing.T) {
	db, _ := newDB(t, emit.Opt, PlaceAll, 12)
	for i := 0; i < 60; i++ {
		if err := db.Payment(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiWarehouse(t *testing.T) {
	as := vm.NewAddressSpace(44)
	em := emit.New(trace.Discard{}, emit.Opt)
	h, err := pmem.NewHeap(as, pmem.NewStore(), em, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TestConfig(44)
	cfg.Warehouses = 3
	db, err := NewDB(h, cfg, PlaceAll)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatalf("post-population: %v", err)
	}
	if err := db.RunMix(200); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatalf("post-mix: %v", err)
	}
	// Remote stock updates happened (1% of new-order lines with W=3).
	var remote uint64
	for w := 1; w <= cfg.Warehouses; w++ {
		for i := 1; i <= cfg.Items; i++ {
			row, ok, err := db.lookupRow("stock", stockKey(w, i))
			if err != nil || !ok {
				t.Fatalf("stock %d/%d missing", w, i)
			}
			f, err := db.readRow(row, 4)
			if err != nil {
				t.Fatal(err)
			}
			remote += f[3]
		}
	}
	t.Logf("remote stock touches: %d", remote)
	if db.Stats().Total() == 0 {
		t.Fatal("no transactions")
	}
}

func TestWarehouseLimits(t *testing.T) {
	as := vm.NewAddressSpace(45)
	em := emit.New(trace.Discard{}, emit.Opt)
	h, _ := pmem.NewHeap(as, pmem.NewStore(), em, nil)
	cfg := TestConfig(45)
	cfg.Warehouses = 300 // > 255: key encoding cannot hold it
	if _, err := NewDB(h, cfg, PlaceAll); err == nil {
		t.Error("oversized warehouse count must be rejected")
	}
	cfg = TestConfig(45)
	cfg.Districts = 16 // > 15
	if _, err := NewDB(h, cfg, PlaceAll); err == nil {
		t.Error("oversized district count must be rejected")
	}
}
