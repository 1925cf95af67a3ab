// Package workloads implements the paper's six microbenchmarks (Table 5)
// parameterized by the pool usage patterns of Table 6 (ALL / EACH / RANDOM)
// and the failure-safety configurations of Table 7 (with transactions, or
// the *_NTX variants without).
package workloads

import (
	"fmt"
	"math/rand"

	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pmem"
)

// Pattern is a pool usage pattern (paper Table 6).
type Pattern int

const (
	// All places every persistent object in one pool.
	All Pattern = iota
	// Each places every structure (node) created by the program in its
	// own freshly created pool.
	Each
	// Random fixes 32 pools and places each new structure in the pool
	// indexed by its key modulo 32.
	Random
)

// RandomPools is the paper's fixed pool count for the RANDOM pattern.
const RandomPools = 32

func (p Pattern) String() string {
	switch p {
	case All:
		return "ALL"
	case Each:
		return "EACH"
	case Random:
		return "RANDOM"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Config selects the workload environment.
type Config struct {
	// Pattern is the pool usage pattern.
	Pattern Pattern
	// Tx enables failure-safety and durability (Table 7: BASE/OPT when
	// true, BASE_NTX/OPT_NTX when false).
	Tx bool
	// Seed drives the workload's key stream (identical across BASE/OPT
	// runs so the functional behaviour is bit-identical).
	Seed int64
}

// Pool sizing for the three patterns.
const (
	masterPoolBytes = 48 << 20
	masterLogBytes  = 256 * 1024
	randomPoolBytes = 4 << 20
	randomLogBytes  = 4096
	eachPoolBytes   = 8192 // header + one data page; no log
)

// Env is the runtime environment of one workload run. It implements
// pds.Ctx: pool placement per the pattern, and undo-log snapshotting per
// the failure-safety configuration.
type Env struct {
	H      *pmem.Heap
	Master *pmem.Pool
	cfg    Config
	rng    *rand.Rand

	randomPools []*pmem.Pool
	eachCount   int
	touched     map[oid.OID]bool
}

// NewEnv creates the pools the pattern needs and the master pool that hosts
// the structure anchor and the undo log.
func NewEnv(h *pmem.Heap, cfg Config) (*Env, error) {
	master, err := h.CreateSized("master", masterPoolBytes, masterLogBytes)
	if err != nil {
		return nil, err
	}
	env := &Env{
		H:      h,
		Master: master,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		// Membership only, order never observed; Begin empties it.
		touched: make(map[oid.OID]bool, 16),
	}
	if cfg.Pattern == Random {
		// The master pool is pool 0 of the 32, so the RANDOM working
		// set is exactly RandomPools pools (the paper's 32-entry POLB
		// then only misses during warm-up).
		env.randomPools = append(env.randomPools, master)
		for i := 1; i < RandomPools; i++ {
			p, err := h.CreateSized(fmt.Sprintf("rand-%02d", i), randomPoolBytes, randomLogBytes)
			if err != nil {
				return nil, err
			}
			env.randomPools = append(env.randomPools, p)
		}
	}
	return env, nil
}

// Heap implements pds.Ctx.
func (env *Env) Heap() *pmem.Heap { return env.H }

// Alloc implements pds.Ctx: it places the new object per the usage pattern
// and logs the allocation when failure-safety is on.
func (env *Env) Alloc(key uint64, size uint32) (oid.OID, error) {
	var pool *pmem.Pool
	switch env.cfg.Pattern {
	case All:
		pool = env.Master
	case Random:
		// pool = key mod 32 — the modulo really executes (Div).
		r := env.H.Emit.Temp()
		env.H.Emit.Div(r, isa.RZ, isa.RZ)
		pool = env.randomPools[key%RandomPools]
	case Each:
		// A brand-new pool sized to the structure it will hold.
		name := fmt.Sprintf("each-%06d", env.eachCount)
		env.eachCount++
		bytes := uint64(eachPoolBytes)
		if need := uint64(4096) + uint64(size) + 64; need > bytes {
			bytes = (need + 4095) &^ 4095
		}
		p, err := env.H.CreateSized(name, bytes, 0)
		if err != nil {
			return oid.Null, err
		}
		pool = p
	}
	if env.cfg.Tx && env.H.InTx() {
		return env.H.TxAlloc(pool, size)
	}
	return env.H.Alloc(pool, size)
}

// Free implements pds.Ctx.
func (env *Env) Free(o oid.OID) error {
	if env.cfg.Tx && env.H.InTx() {
		return env.H.TxFree(o)
	}
	return env.H.Free(o)
}

// Touch implements pds.Ctx: snapshot once per object per transaction.
func (env *Env) Touch(o oid.OID, size uint32) error {
	if !env.cfg.Tx || !env.H.InTx() {
		return nil
	}
	if env.touched[o] {
		return nil
	}
	env.touched[o] = true
	return env.H.TxAddRange(o, size)
}

// Begin opens a failure-safe operation (a transaction on the master pool
// when Tx is configured; nothing otherwise).
func (env *Env) Begin() error {
	if !env.cfg.Tx {
		return nil
	}
	clear(env.touched)
	return env.H.TxBegin(env.Master)
}

// End commits the operation.
func (env *Env) End() error {
	if !env.cfg.Tx {
		return nil
	}
	return env.H.TxEnd()
}

// NextKey draws the next random key in [0, keyRange), emitting the RNG's
// instruction cost, and returns it with the register that holds it.
func (env *Env) NextKey(keyRange uint64) (uint64, isa.Reg) {
	k := uint64(env.rng.Int63n(int64(keyRange)))
	e := env.H.Emit
	r := e.Temp()
	e.Mul(r, r, isa.RZ) // LCG multiply
	r2 := e.Compute(5, r)
	return k, r2
}

// NextInt draws a bounded random integer with the same emitted cost.
func (env *Env) NextInt(n int) (int, isa.Reg) {
	k, r := env.NextKey(uint64(n))
	return int(k), r
}

// RootCell returns the 8-byte anchor slot at the given index within the
// master pool's root object (creating a 64-byte root on first use).
func (env *Env) RootCell(index uint32) (oid.OID, error) {
	root, err := env.H.Root(env.Master, 64)
	if err != nil {
		return oid.Null, err
	}
	return root.FieldAt(index * 8), nil
}

// PoolsCreated reports how many pools the run created (diagnostics; the
// EACH pattern creates one per structure).
func (env *Env) PoolsCreated() int {
	n := 1 + env.eachCount
	if env.cfg.Pattern == Random {
		n += RandomPools - 1
	}
	return n
}
