package harness

import (
	"fmt"
	"time"

	"potgo/internal/objstore"
	"potgo/internal/pmem"
	"potgo/internal/workloads"
)

// FTBenchOverhead is one benchmark's media-fault-tolerance overhead:
// the same durable workload run functionally over plain pools and over
// fault-tolerant pools (CRC32C per object, parity column, VerifyOnRead),
// as mean wall nanoseconds per operation.
type FTBenchOverhead struct {
	Bench   string
	Ops     int
	PlainNs float64 // ns/op over plain pools
	FTNs    float64 // ns/op over fault-tolerant pools
}

// Overhead is the relative FT tax ((ft-plain)/plain).
func (f FTBenchOverhead) Overhead() float64 {
	if f.PlainNs == 0 {
		return 0
	}
	return (f.FTNs - f.PlainNs) / f.PlainNs
}

// MeasureFTOverhead prices media-fault tolerance on whole benchmarks:
// each named bench (nil = the six Table 5 micros plus durable TPC-C)
// runs functionally twice with identical seeds — once over plain pools,
// once with SetFTDefault+SetVerifyOnRead so every pool carries checksums
// and parity — and the pair's wall time per operation is reported. The
// functional checksums of the two runs must agree: fault tolerance may
// only change cost, never results. Micros run durable (Tx); ops is the
// micro operation count, tpccOps the TPC-C transaction count (at
// tpcc.TestConfig scale so the measurement stays test-sized).
func MeasureFTOverhead(benches []string, ops, tpccOps int, seed int64) ([]FTBenchOverhead, error) {
	if ops <= 0 || tpccOps <= 0 {
		return nil, fmt.Errorf("harness: MeasureFTOverhead needs positive ops (%d) and tpccOps (%d)", ops, tpccOps)
	}
	if benches == nil {
		benches = append(append([]string{}, MicroBenches...), TPCCBench)
	}
	out := make([]FTBenchOverhead, 0, len(benches))
	for _, bench := range benches {
		spec := RunSpec{Bench: bench, Pattern: workloads.All, Tx: true, Ops: ops, Seed: seed}
		if bench == TPCCBench {
			spec.Ops, spec.TPCC = tpccOps, true
		}
		timed := func(ft bool) (float64, uint64, error) {
			s := spec
			s.FT = ft
			start := time.Now()
			res, err := RunFunctional(s)
			if err != nil {
				return 0, 0, fmt.Errorf("harness: %s: %w", s.Label(), err)
			}
			return float64(time.Since(start)) / float64(s.Ops), res.Checksum, nil
		}
		plainNs, plainSum, err := timed(false)
		if err != nil {
			return nil, err
		}
		ftNs, ftSum, err := timed(true)
		if err != nil {
			return nil, err
		}
		if plainSum != ftSum {
			return nil, fmt.Errorf("harness: %s: FT changed the functional result (%#x plain, %#x FT)",
				spec.Bench, plainSum, ftSum)
		}
		out = append(out, FTBenchOverhead{Bench: bench, Ops: spec.Ops, PlainNs: plainNs, FTNs: ftNs})
	}
	return out, nil
}

// MeasureVerifyOverhead times the KV get path over a fault-free
// fault-tolerant store with checksum verification off, then on,
// returning the mean nanoseconds per Get for each. The delta is
// VerifyOnRead's read-path tax (one CRC32C per slab object the lookup
// derefs).
func MeasureVerifyOverhead(keys, iters int, seed uint64) (plainNs, verifyNs float64, err error) {
	sh, err := pmem.NewSharded(pmem.NewStore(), 4, int64(seed))
	if err != nil {
		return 0, 0, err
	}
	kv, err := objstore.CreateKVFT(sh, "vo")
	if err != nil {
		return 0, 0, err
	}
	for k := 1; k <= keys; k++ {
		if _, err := kv.Put(uint64(k), uint64(k)^seed); err != nil {
			return 0, 0, err
		}
	}
	measure := func() (float64, error) {
		// One warm-up sweep, then the timed loop.
		for k := 1; k <= keys; k++ {
			if _, _, err := kv.Get(uint64(k)); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			key := uint64(i%keys + 1)
			if _, _, err := kv.Get(key); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
	}
	if plainNs, err = measure(); err != nil {
		return 0, 0, err
	}
	sh.SetVerifyOnRead(true)
	if verifyNs, err = measure(); err != nil {
		return 0, 0, err
	}
	return plainNs, verifyNs, nil
}
