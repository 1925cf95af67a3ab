// Command tracedump shows how the same persistent-memory program compiles
// under the three translation regimes by dumping the beginning of its
// dynamic instruction stream. The run is named by a spec (see
// cmd/experiments); its configuration picks the regime:
//
//	tracedump -spec LL/RANDOM/BASE/in-order:ops=3:seed=1        # oid_direct software translation
//	tracedump -spec LL/RANDOM/OPT/Pipelined/in-order:ops=3:seed=1  # the paper's nvld/nvst
//	tracedump -spec LL/RANDOM/FIXED/in-order:ops=3:seed=1       # raw pointers at fixed addresses
//
// Comparing the three side by side makes the paper's Table 2 overhead
// visible instruction by instruction. The workload runs functionally, so
// the spec's core and translation-hardware keys change nothing.
package main

import (
	"flag"
	"fmt"
	"os"

	"potgo/internal/harness"
	"potgo/internal/isa"
)

func main() {
	var (
		specFlag = flag.String("spec", "LL/RANDOM/BASE/in-order:ops=3:seed=1", "the run to dump (a harness.RunSpec name)")
		n        = flag.Int("n", 120, "instructions to dump")
		skip     = flag.Int("skip", 0, "instructions to skip first (e.g. past setup)")
	)
	flag.Parse()

	spec, err := harness.ParseSpec(*specFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(2)
	}
	w := &window{from: *skip, to: *skip + *n}
	if _, err := harness.RunEmitted(spec, w); err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(1)
	}

	fmt.Printf("%s — %d instructions total; dumping [%d, %d)\n\n", spec, w.total, w.from, w.from+len(w.kept))
	for i, in := range w.kept {
		fmt.Printf("%6d  %s\n", w.from+i, in)
	}
	fmt.Println("\ninstruction mix:")
	for op := isa.Op(0); op < 12; op++ {
		if w.counts[op] > 0 {
			fmt.Printf("  %-7s %8d (%.1f%%)\n", op, w.counts[op], 100*float64(w.counts[op])/float64(w.total))
		}
	}
}

// window is a trace consumer that keeps the instructions in [from, to) and
// counts every instruction by opcode.
type window struct {
	from, to, total int
	kept            []isa.Instr
	counts          [16]int
}

func (w *window) Consume(chunk []isa.Instr) {
	for _, in := range chunk {
		if w.total >= w.from && w.total < w.to {
			w.kept = append(w.kept, in)
		}
		w.counts[in.Op]++
		w.total++
	}
}
