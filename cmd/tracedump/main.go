// Command tracedump shows how the same persistent-memory program compiles
// under the three translation regimes by dumping the beginning of its
// dynamic instruction stream:
//
//	tracedump -bench LL -mode base   # oid_direct software translation
//	tracedump -bench LL -mode opt    # the paper's nvld/nvst
//	tracedump -bench LL -mode fixed  # raw pointers at fixed addresses
//
// Comparing the three side by side makes the paper's Table 2 overhead
// visible instruction by instruction.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"potgo/internal/emit"
	"potgo/internal/isa"
	"potgo/internal/pmem"
	"potgo/internal/trace"
	"potgo/internal/vm"
	"potgo/internal/workloads"
)

func main() {
	var (
		bench = flag.String("bench", "LL", "microbenchmark: LL BST SPS RBT BT B+T")
		mode  = flag.String("mode", "base", "translation regime: base, opt or fixed")
		n     = flag.Int("n", 120, "instructions to dump")
		skip  = flag.Int("skip", 0, "instructions to skip first (e.g. past setup)")
		ops   = flag.Int("ops", 3, "workload operations to run")
		seed  = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	var m emit.Mode
	switch strings.ToLower(*mode) {
	case "base":
		m = emit.Base
	case "opt":
		m = emit.Opt
	case "fixed":
		m = emit.Fixed
	default:
		fmt.Fprintf(os.Stderr, "tracedump: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	spec, ok := workloads.ByAbbr(strings.ToUpper(*bench))
	if !ok {
		fmt.Fprintf(os.Stderr, "tracedump: unknown benchmark %q\n", *bench)
		os.Exit(2)
	}

	as := vm.NewAddressSpace(*seed)
	var buf trace.Buffer
	em := emit.New(&buf, m)
	if stack, err := as.Map(64 * 1024); err == nil {
		em.AttachStack(stack.Base, stack.Size)
	}
	var soft *emit.SoftTranslator
	var err error
	if m == emit.Base {
		if soft, err = emit.NewSoftTranslator(em, as, 1024); err != nil {
			fail(err)
		}
	}
	h, err := pmem.NewHeap(as, pmem.NewStore(), em, soft)
	if err != nil {
		fail(err)
	}
	env, err := workloads.NewEnv(h, workloads.Config{Pattern: workloads.Random, Tx: true, Seed: *seed})
	if err != nil {
		fail(err)
	}
	if _, err := spec.Run(env, *ops, spec.DefaultKeyRange); err != nil {
		fail(err)
	}
	em.Flush()

	fmt.Printf("%s / RANDOM / %s — %d instructions total; dumping [%d, %d)\n\n",
		spec.Abbr, m, len(buf.Instrs), *skip, *skip+*n)
	end := *skip + *n
	if end > len(buf.Instrs) {
		end = len(buf.Instrs)
	}
	var counts [16]int
	for _, in := range buf.Instrs {
		counts[in.Op]++
	}
	for i := *skip; i < end; i++ {
		fmt.Printf("%6d  %s\n", i, buf.Instrs[i])
	}
	fmt.Println("\ninstruction mix:")
	for op := isa.Op(0); op < 12; op++ {
		if counts[op] > 0 {
			fmt.Printf("  %-7s %8d (%.1f%%)\n", op, counts[op], 100*float64(counts[op])/float64(len(buf.Instrs)))
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracedump:", err)
	os.Exit(1)
}
