// Package lincheck decides whether a concurrent history is linearizable
// with respect to a sequential model — the correctness bar for the
// concurrent object stores built on the sharded heap.
//
// The checker implements the Wing & Gong search in its partitioned,
// memoized form (the shape popularized by Lowe's refinement and the
// porcupine checker): a history is linearizable iff some total order of
// its operations (a) respects real-time order — an operation that returned
// before another was invoked comes first — and (b) replays through the
// sequential model producing exactly the observed outputs. The search
// walks prefixes of such orders, at each step trying every operation whose
// invocation precedes the earliest return among the not-yet-linearized
// operations, and memoizes (linearized-set, model-state) pairs so a failed
// frontier is never re-explored.
//
// Histories are recorded with a Recorder, whose single atomic clock gives
// every invocation and return a unique timestamp — no ties, so real-time
// order is a strict partial order.
package lincheck

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Op is one completed operation of a concurrent history.
type Op struct {
	// Worker identifies the client that issued the operation.
	Worker int
	// Input and Output must be comparable with == (use small structs or
	// scalars); Output is matched exactly against the model's output.
	Input  any
	Output any
	// Call and Ret are the invocation and return timestamps. The checker
	// requires Call < Ret and globally unique timestamps (the Recorder
	// guarantees both).
	Call uint64
	Ret  uint64
}

// Model is a sequential specification.
type Model struct {
	// Init returns the model's initial state.
	Init func() any
	// Step applies an input to a state, returning the successor state and
	// the output a sequential execution would produce. States must be
	// treated as immutable (return fresh values, don't mutate in place).
	Step func(state, input any) (any, any)
	// Repr renders a state canonically for memoization.
	Repr func(state any) string
	// Partition, when non-nil, splits the history into independent
	// sub-histories checked separately (Herlihy & Wing locality: a history
	// is linearizable iff each per-object sub-history is). The returned
	// key must be comparable.
	Partition func(op Op) any
}

// Check reports whether history is linearizable with respect to m,
// returning nil on success and a diagnostic error naming the stuck
// partition otherwise.
//
//potlint:allow unusedexport kept for TestCheckSequentialGood, TestCheckSequentialBad and TestCheckConcurrentFlexibility
func Check(m Model, history []Op) error {
	if m.Init == nil || m.Step == nil || m.Repr == nil {
		return fmt.Errorf("lincheck: model needs Init, Step and Repr")
	}
	if m.Partition == nil {
		return checkOps(m, history, "history")
	}
	groups := make(map[any][]Op)
	var keys []any
	for _, op := range history {
		k := m.Partition(op)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], op)
	}
	// Deterministic check order (map iteration is not).
	sort.Slice(keys, func(i, j int) bool {
		return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j])
	})
	for _, k := range keys {
		if err := checkOps(m, groups[k], fmt.Sprintf("partition %v", k)); err != nil {
			return err
		}
	}
	return nil
}

// checkOps runs the memoized Wing & Gong search over one sub-history.
func checkOps(m Model, ops []Op, what string) error {
	n := len(ops)
	if n == 0 {
		return nil
	}
	sorted := make([]Op, n)
	copy(sorted, ops)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Call < sorted[j].Call })
	for _, op := range sorted {
		if op.Call >= op.Ret {
			return fmt.Errorf("lincheck: %s: op %+v has Call >= Ret", what, op)
		}
	}

	linearized := make([]bool, n)
	bitset := make([]byte, (n+7)/8)
	memo := make(map[string]bool)

	var dfs func(state any, done int) bool
	dfs = func(state any, done int) bool {
		if done == n {
			return true
		}
		key := string(bitset) + "\x00" + m.Repr(state)
		if memo[key] {
			return false
		}
		// The next linearized op must have invoked before the earliest
		// return among the remaining ops — anything later provably ran
		// strictly after some remaining op completed.
		minRet := ^uint64(0)
		for i := 0; i < n; i++ {
			if !linearized[i] && sorted[i].Ret < minRet {
				minRet = sorted[i].Ret
			}
		}
		for i := 0; i < n; i++ {
			if linearized[i] || sorted[i].Call > minRet {
				continue
			}
			next, out := m.Step(state, sorted[i].Input)
			if out != sorted[i].Output {
				continue
			}
			linearized[i] = true
			bitset[i/8] |= 1 << (i % 8)
			if dfs(next, done+1) {
				return true
			}
			linearized[i] = false
			bitset[i/8] &^= 1 << (i % 8)
		}
		memo[key] = true
		return false
	}
	if !dfs(m.Init(), 0) {
		return fmt.Errorf("lincheck: %s: no linearization of %d ops matches the model", what, n)
	}
	return nil
}

// Recorder collects a concurrent history. One atomic clock timestamps
// every invocation and return, so timestamps are globally unique and the
// recorded real-time order is exactly the order the calls happened in.
type Recorder struct {
	clock uint64
	mu    sync.Mutex
	ops   []Op
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Pending is an invoked-but-unfinished operation.
type Pending struct {
	worker int
	input  any
	call   uint64
}

// Begin timestamps an invocation. Call it immediately before issuing the
// operation against the system under test.
func (r *Recorder) Begin(worker int, input any) Pending {
	return Pending{worker: worker, input: input, call: atomic.AddUint64(&r.clock, 1)}
}

// End timestamps the return and commits the completed operation to the
// history, returning it (callers building secondary histories — e.g. the
// SI checker's — read the timestamps off the result). Call it immediately
// after the operation returns.
func (r *Recorder) End(p Pending, output any) Op {
	ret := atomic.AddUint64(&r.clock, 1)
	op := Op{
		Worker: p.worker,
		Input:  p.input,
		Output: output,
		Call:   p.call,
		Ret:    ret,
	}
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
	return op
}

// History snapshots the completed operations (call with workers joined).
//
//potlint:allow unusedexport kept for TestRecorderTimestamps and TestKVSnapshotIsolation
func (r *Recorder) History() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Op, len(r.ops))
	copy(out, r.ops)
	return out
}
