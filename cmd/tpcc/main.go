// Command tpcc runs the TPC-C application standalone: populate one
// warehouse, execute a transaction mix, verify the consistency conditions,
// and report per-transaction statistics. The same mix runs on the
// simulated machine through cmd/experiments, for example:
//
//	experiments -spec TPCC/ALL/BASE/in-order:seed=1:tpcc=test,TPCC/ALL/OPT/Pipelined/in-order:seed=1:tpcc=test
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"potgo/internal/emit"
	"potgo/internal/pmem"
	"potgo/internal/tpcc"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

func main() {
	var (
		txns       = flag.Int("txns", 1000, "transactions to run")
		place      = flag.String("place", "all", "pool placement: all (TPCC_ALL) or each (TPCC_EACH)")
		scale      = flag.String("scale", "spec", "database scale: spec (full TPC-C cardinalities) or test")
		warehouses = flag.Int("warehouses", 0, "override warehouse count (0 = config default)")
		seed       = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	placeIdx, err := choose("place", *place, "all", "each")
	if err != nil {
		usage(err)
	}
	scaleIdx, err := choose("scale", *scale, "spec", "test")
	if err != nil {
		usage(err)
	}
	placement := []tpcc.Placement{tpcc.PlaceAll, tpcc.PlaceEach}[placeIdx]
	cfg := []func(int64) tpcc.Config{tpcc.SpecConfig, tpcc.TestConfig}[scaleIdx](*seed)
	if *warehouses > 0 {
		cfg.Warehouses = *warehouses
	}

	as := vm.NewAddressSpace(*seed)
	em := emit.New(trace.Discard{}, emit.Opt)
	h, err := pmem.NewHeap(as, pmem.NewStore(), em, nil)
	if err != nil {
		fail(err)
	}
	fmt.Printf("populating %s database (%d items, %d districts x %d customers)...\n",
		placement, cfg.Items, cfg.Districts, cfg.CustomersPerDistrict)
	db, err := tpcc.NewDB(h, cfg, placement)
	if err != nil {
		fail(err)
	}
	if err := db.CheckConsistency(); err != nil {
		fail(fmt.Errorf("post-population consistency: %w", err))
	}
	fmt.Printf("running %d transactions...\n", *txns)
	if err := db.RunMix(*txns); err != nil {
		fail(err)
	}
	if err := db.CheckConsistency(); err != nil {
		fail(fmt.Errorf("post-run consistency: %w", err))
	}
	st := db.Stats()
	fmt.Printf("committed %d transactions (%d new-order rollbacks)\n", st.Total(), st.Rollbacks)
	for i, n := range st.Counts {
		fmt.Printf("  %-12s %6d\n", tpcc.TxType(i), n)
	}
	fmt.Println("consistency conditions hold")
}

// choose returns the index of v (case-insensitively) among a flag's
// choices.
func choose(name, v string, choices ...string) (int, error) {
	for i, c := range choices {
		if strings.EqualFold(v, c) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("-%s %q: want one of %s", name, v, strings.Join(choices, ", "))
}

func usage(err error) {
	fmt.Fprintf(os.Stderr, "tpcc: %v\n", err)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tpcc: %v\n", err)
	os.Exit(1)
}
