package harness

import (
	"fmt"

	"potgo/internal/emit"
	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pmem"
	"potgo/internal/stats"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

// Recovery measures the cost of crash recovery as a function of how much an
// interrupted transaction had logged, in both translation regimes: recovery
// replays undo records through ObjectIDs (the log stores OIDs precisely
// because pools relocate between the crashed and the recovering process),
// so the hardware accelerates the recovery path exactly as it accelerates
// forward processing. Reported per log size: dynamic instructions and CLWBs
// spent inside Recover, and the BASE/OPT instruction ratio.
func (s *Suite) Recovery() (Report, error) {
	sizes := []int{1, 4, 16, 64, 256}
	tb := stats.NewTable("Recovery cost vs interrupted-transaction size",
		"Undo records", "BASE insns", "OPT insns", "BASE/OPT", "CLWBs")
	values := map[string]float64{}
	for _, n := range sizes {
		baseInsns, _, err := measureRecovery(emit.Base, n, s.opts.Seed)
		if err != nil {
			return Report{}, err
		}
		optInsns, clwbs, err := measureRecovery(emit.Opt, n, s.opts.Seed)
		if err != nil {
			return Report{}, err
		}
		ratio := float64(baseInsns) / float64(optInsns)
		tb.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", baseInsns), fmt.Sprintf("%d", optInsns),
			stats.F(ratio), fmt.Sprintf("%d", clwbs))
		values[fmt.Sprintf("records%d_ratio", n)] = ratio
		values[fmt.Sprintf("records%d_opt_insns", n)] = float64(optInsns)
	}
	return Report{
		ID:     "recovery",
		Title:  "Crash-recovery cost (extension)",
		Text:   tb.Render(),
		Values: values,
	}, nil
}

// measureRecovery crashes a transaction after n undo records and counts the
// instructions a fresh process emits to recover the pool.
func measureRecovery(mode emit.Mode, n int, seed int64) (insns, clwbs uint64, err error) {
	as := vm.NewAddressSpace(seed ^ 0xec0)
	store := pmem.NewStore()

	build := func() (*pmem.Heap, *emit.Emitter, error) {
		em := emit.New(trace.Discard{}, mode)
		var soft *emit.SoftTranslator
		if mode == emit.Base {
			var err error
			if soft, err = emit.NewSoftTranslator(em, as, 1024); err != nil {
				return nil, nil, err
			}
		}
		h, err := pmem.NewHeap(as, store, em, soft)
		return h, em, err
	}

	// Process 1: log n records, then crash.
	h, _, err := build()
	if err != nil {
		return 0, 0, err
	}
	pool, err := h.CreateSized("rec", 4<<20, 1<<20)
	if err != nil {
		return 0, 0, err
	}
	oids := make([]oid.OID, n)
	for i := 0; i < n; i++ {
		o, err := h.Alloc(pool, 64)
		if err != nil {
			return 0, 0, err
		}
		oids[i] = o
	}
	tx, err := h.Begin(pool)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < n; i++ {
		o := oids[i]
		if err := tx.AddRange(o, 64); err != nil {
			return 0, 0, err
		}
		ref, err := h.Deref(o, isa.RZ)
		if err != nil {
			return 0, 0, err
		}
		if err := ref.Store64(0, uint64(i)+1000, isa.RZ); err != nil {
			return 0, 0, err
		}
	}
	// CrashClean: this experiment measures log-replay cost in isolation,
	// so the durable image keeps every cache line (the adversarial
	// line-loss policies live in the crash-injection engine instead).
	if err := h.CrashClean(); err != nil {
		return 0, 0, err
	}

	// Process 2: recover, counting emitted work.
	h2, em2, err := build()
	if err != nil {
		return 0, 0, err
	}
	pool2, err := h2.Open("rec")
	if err != nil {
		return 0, 0, err
	}
	if !h2.NeedsRecovery(pool2) {
		return 0, 0, fmt.Errorf("harness: recovery experiment: log unexpectedly clean")
	}
	before := em2.Count()
	if err := h2.Recover(pool2); err != nil {
		return 0, 0, err
	}
	insns = em2.Count() - before
	// Every undone 64-byte range persists 1-2 lines, plus the log
	// truncation.
	clwbs = uint64(n)*2 + 2
	return insns, clwbs, nil
}
