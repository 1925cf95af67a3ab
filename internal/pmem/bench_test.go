package pmem

import (
	"fmt"
	"sync/atomic"
	"testing"

	"potgo/internal/emit"
	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/trace"
	"potgo/internal/vm"
)

// These microbenchmarks pin down the cost of the two hot paths the
// group-commit and slab work targets: a full undo-logged transaction commit
// (snapshot, CLWB drain, fence) and an alloc/free pair through the
// size-class slabs. The parallel variants run against one shared heap so
// concurrent commits exercise the leader/follower group fence and the
// allocator's per-shard locking.

func newBenchHeap(b *testing.B) (*Heap, *Pool) {
	b.Helper()
	as := vm.NewAddressSpace(1)
	h, err := NewHeap(as, NewStore(), emit.New(trace.Discard{}, emit.Opt), nil)
	if err != nil {
		b.Fatal(err)
	}
	p, err := h.CreateSized("bench", 1<<22, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	return h, p
}

// BenchmarkTxCommit measures one undo-logged overwrite transaction:
// Begin, AddRange (64-byte snapshot), one store, Commit (log seal, CLWB
// drain, fence, log truncate). Steady state must not allocate — the Tx
// handle and its snapshot arena are recycled.
func BenchmarkTxCommit(b *testing.B) {
	h, p := newBenchHeap(b)
	o, err := h.Alloc(p, 64)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := h.Deref(o, isa.RZ)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := h.Begin(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.AddRange(o, 64); err != nil {
			b.Fatal(err)
		}
		if err := ref.Store64(0, uint64(i), isa.RZ); err != nil {
			b.Fatal(err)
		}
		if err := t.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxCommitParallel runs the same transaction from many goroutines
// against one sharded heap, each worker on its own pool (and shard lock),
// so concurrent Commits land in the heap's group-commit window and share
// one SFENCE per batch instead of paying one each.
func BenchmarkTxCommitParallel(b *testing.B) {
	sh, err := NewSharded(NewStore(), 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	h := sh.Heap()
	// One pool (plus one pre-allocated object) per prospective worker;
	// RunParallel never runs more than GOMAXPROCS goroutines.
	type lane struct {
		p   *Pool
		o   oid.OID
		ref Ref
	}
	lanes := make([]lane, 64)
	for i := range lanes {
		p, err := sh.CreateSized(fmt.Sprintf("w%d", i), 1<<20, 1<<16)
		if err != nil {
			b.Fatal(err)
		}
		o, err := h.Alloc(p, 64)
		if err != nil {
			b.Fatal(err)
		}
		ref, err := h.Deref(o, isa.RZ)
		if err != nil {
			b.Fatal(err)
		}
		lanes[i] = lane{p: p, o: o, ref: ref}
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ln := lanes[int(next.Add(1)-1)%len(lanes)]
		id := ln.p.ID()
		var i uint64
		for pb.Next() {
			i++
			sh.LockPool(id)
			t, err := h.Begin(ln.p)
			if err != nil {
				sh.UnlockPool(id)
				b.Fatal(err)
			}
			if err := t.AddRange(ln.o, 64); err != nil {
				sh.UnlockPool(id)
				b.Fatal(err)
			}
			if err := ln.ref.Store64(0, i, isa.RZ); err != nil {
				sh.UnlockPool(id)
				b.Fatal(err)
			}
			if err := t.Commit(); err != nil {
				sh.UnlockPool(id)
				b.Fatal(err)
			}
			sh.UnlockPool(id)
		}
	})
}

// BenchmarkAlloc measures an alloc/free pair per size class: a slab-slot
// bitmap flip plus free-list push/pop once the class's spans are warm.
func BenchmarkAlloc(b *testing.B) {
	for _, size := range []uint32{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			h, p := newBenchHeap(b)
			// Warm the class so the measured loop recycles slots instead
			// of carving fresh spans.
			o, err := h.Alloc(p, size)
			if err != nil {
				b.Fatal(err)
			}
			if err := h.Free(o); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := h.Alloc(p, size)
				if err != nil {
					b.Fatal(err)
				}
				if err := h.Free(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocParallel churns alloc/free pairs from many goroutines, each
// on its own pool under its shard lock, against one shared heap — the
// allocator's metadata persists through the same nvmsim write-back model
// the transactions use, so this exposes cross-shard contention in the
// persistence layer.
func BenchmarkAllocParallel(b *testing.B) {
	sh, err := NewSharded(NewStore(), 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	h := sh.Heap()
	pools := make([]*Pool, 64)
	for i := range pools {
		p, err := sh.CreateSized(fmt.Sprintf("w%d", i), 1<<20, 1<<16)
		if err != nil {
			b.Fatal(err)
		}
		pools[i] = p
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := pools[int(next.Add(1)-1)%len(pools)]
		id := p.ID()
		for pb.Next() {
			sh.LockPool(id)
			o, err := h.Alloc(p, 64)
			if err != nil {
				sh.UnlockPool(id)
				b.Fatal(err)
			}
			if err := h.Free(o); err != nil {
				sh.UnlockPool(id)
				b.Fatal(err)
			}
			sh.UnlockPool(id)
		}
	})
}

// newSeededMVCC builds a sharded heap with one versioned pool and seeds the
// mirror with n 8-byte objects at distinct offsets. The objects are raw pool
// bytes, not allocations: the index only ever sees their OIDs.
func newSeededMVCC(tb testing.TB, n int) (*Sharded, *Pool, []oid.OID) {
	tb.Helper()
	sh, err := NewSharded(NewStore(), 4, 1)
	if err != nil {
		tb.Fatalf("NewSharded: %v", err)
	}
	const base = 1 << 20
	p, err := sh.Create("idx", 2*base+8*uint64(n))
	if err != nil {
		tb.Fatalf("Create: %v", err)
	}
	sh.EnableMVCC(p)
	m := sh.MVCC()
	oids := make([]oid.OID, n)
	for i := range oids {
		oids[i] = oid.New(p.ID(), base+8*uint32(i))
		if err := m.Seed(sh.Heap(), p, oids[i], 8); err != nil {
			tb.Fatalf("Seed %d: %v", i, err)
		}
	}
	return sh, p, oids
}

// mvccBenchSizes are the index populations the two benchmarks below run
// at: a toy store, the repository benchmark's serve_read store, and one
// twenty times larger. An index that scales reads the same at all three.
var mvccBenchSizes = []struct {
	name string
	n    int
}{{"1k", 1_000}, {"44k", 44_000}, {"1M", 1_000_000}}

// mvccBenchProbes is how many distinct objects a benchmark loop touches,
// spread evenly over the population. It is the same at every size so that
// the loop's cache footprint is too: what changes ns/op between 1k and 1M
// is then the number of entries a look-up examines, not the cache misses
// of a larger working set.
const mvccBenchProbes = 512

var mvccBenchSink []byte

// BenchmarkMVCCSnapAt measures one snapshot resolution (stripe lock, index
// look-up, chain walk) against a mirror of n objects. Allocation-free.
func BenchmarkMVCCSnapAt(b *testing.B) {
	for _, sz := range mvccBenchSizes {
		b.Run(sz.name, func(b *testing.B) {
			sh, _, oids := newSeededMVCC(b, sz.n)
			m := sh.MVCC()
			pin := m.Pin()
			defer m.Unpin(pin)
			stride := len(oids) / mvccBenchProbes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, ok := pin.SnapDeref(oids[i%mvccBenchProbes*stride])
				if !ok {
					b.Fatal("seeded object not visible")
				}
				mvccBenchSink = buf
			}
		})
	}
}

// BenchmarkMVCCPublish measures what a commit pays the mirror for one
// overwritten object (look-up, demote, push, prune, epoch advance) against
// a mirror of n objects. Steady state recycles versions through the
// freelist, so it is allocation-free too.
func BenchmarkMVCCPublish(b *testing.B) {
	for _, sz := range mvccBenchSizes {
		b.Run(sz.name, func(b *testing.B) {
			sh, _, oids := newSeededMVCC(b, sz.n)
			h := sh.Heap()
			stride := len(oids) / mvccBenchProbes
			st := &txState{records: []txRecord{{kind: recData, size: 8}}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.records[0].oid = oids[i%mvccBenchProbes*stride]
				if err := h.mvccPublish(st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
