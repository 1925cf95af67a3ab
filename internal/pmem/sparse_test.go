package pmem

import (
	"bytes"
	"fmt"
	"testing"

	"potgo/internal/emit"
	"potgo/internal/isa"
	"potgo/internal/nvmsim"
	"potgo/internal/obs"
	"potgo/internal/oid"
	"potgo/internal/pot"
)

const sparsePoolBytes = 48 << 20 // the harness's master pool

// cacheView reads a mapped pool's bytes out of the address space: the flat
// reference the sparse durable image is compared against.
func cacheView(t *testing.T, h *Heap, p *Pool) []byte {
	t.Helper()
	buf := make([]byte, p.Size())
	if err := h.AS.ReadAt(p.region.Base, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// A mapped pool costs what it has touched, in both of its images.
func TestSparsePoolFootprint(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p, err := e.h.Create("big", sparsePoolBytes)
	if err != nil {
		t.Fatal(err)
	}
	o, err := e.h.Alloc(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.h.Deref(o, isa.RZ)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Store64(0, 0xfeed, isa.RZ); err != nil {
		t.Fatal(err)
	}
	if err := e.h.SyncPool(p); err != nil {
		t.Fatal(err)
	}
	if got := e.as.MappedBytes(); got != sparsePoolBytes {
		t.Errorf("mapped %d bytes, want %d", got, sparsePoolBytes)
	}
	frames, durable := e.as.ResidentBytes(), e.store.ResidentBytes()
	if frames+durable > 64<<10 {
		t.Errorf("one object in a 48 MiB pool holds %d B of frames + %d B of store, want <= 64 KiB", frames, durable)
	}
	if frames != durable {
		t.Errorf("after a sync the two images hold different page sets: %d B of frames, %d B of store", frames, durable)
	}
	if !bytes.Equal(e.store.DumpBytes()["big"], cacheView(t, e.h, p)) {
		t.Error("durable image differs from the cache view after SyncPool")
	}

	// The same three figures reach the metrics registry.
	reg := obs.NewRegistry()
	e.h.PublishMetrics(reg)
	gauges := reg.Snapshot().Gauges
	for name, want := range map[string]uint64{
		"vm.mapped_bytes":           sparsePoolBytes,
		"vm.resident_bytes":         frames,
		"pmem.store.resident_bytes": durable,
	} {
		if got, ok := gauges[name]; !ok || got != float64(want) {
			t.Errorf("gauge %s = %v (present %t), want %d", name, got, ok, want)
		}
	}
}

// sparseScript runs allocations, frees and transactions (committed and
// aborted) that spread over several pages of the pool, leaving some stores
// unpersisted.
func sparseScript(t *testing.T, h *Heap, p *Pool) []oid.OID {
	t.Helper()
	var live []oid.OID
	for i := 0; i < 40; i++ {
		size := uint32(64 << (i % 6)) // 64 B .. 2 KiB: several size classes and pages
		tx, err := h.Begin(p)
		if err != nil {
			t.Fatal(err)
		}
		o, err := tx.Alloc(p, size)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := h.Deref(o, isa.RZ)
		if err != nil {
			t.Fatal(err)
		}
		for off := uint32(0); off < size; off += 8 {
			if err := ref.Store64(off, uint64(i)<<32|uint64(off)|1, isa.RZ); err != nil {
				t.Fatal(err)
			}
		}
		if i%7 == 3 {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		live = append(live, o)
		if i%5 == 4 {
			if err := h.Free(live[0]); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
	}
	// A store that is never flushed: the cache view runs ahead of the
	// durable one until a sync.
	ref, err := h.Deref(live[0], isa.RZ)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Store64(8, 0xdead, isa.RZ); err != nil {
		t.Fatal(err)
	}
	return live
}

// DumpBytes materialises the sparse image exactly: after a sync it equals
// the flat cache view, a close writes the same bytes back, and a reopen maps
// them in again.
func TestSparseDumpMatchesFlatReference(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p, err := e.h.Create("big", sparsePoolBytes)
	if err != nil {
		t.Fatal(err)
	}
	sparseScript(t, e.h, p)
	flat := cacheView(t, e.h, p)
	if bytes.Equal(e.store.DumpBytes()["big"], flat) {
		t.Fatal("the unflushed store reached the durable image without a sync")
	}
	if err := e.h.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.store.DumpBytes()["big"], flat) {
		t.Error("durable image differs from the cache view after SyncAll")
	}
	if err := e.h.Close(p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.store.DumpBytes()["big"], flat) {
		t.Error("durable image changed across Close")
	}
	if got := e.as.ResidentBytes(); got != 0 {
		t.Errorf("a closed pool keeps %d B of frames", got)
	}
	p, err = e.h.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cacheView(t, e.h, p), flat) {
		t.Error("cache view after reopen differs from what was closed")
	}
	if err := e.h.CheckPool(p); err != nil {
		t.Error(err)
	}
	if frames, durable := e.as.ResidentBytes(), e.store.ResidentBytes(); frames != durable {
		t.Errorf("map-time invariant: %d B of frames for %d B of durable pages", frames, durable)
	}
}

// A crash that drops every volatile line leaves exactly the durable image,
// and reopening maps exactly that.
func TestSparseCrashDropAllReopen(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p, err := e.h.Create("big", sparsePoolBytes)
	if err != nil {
		t.Fatal(err)
	}
	live := sparseScript(t, e.h, p)
	if _, err := e.h.Crash(nvmsim.DropAllPolicy()); err != nil {
		t.Fatal(err)
	}
	durable := e.store.DumpBytes()["big"]
	if got := e.as.ResidentBytes(); got != 0 {
		t.Errorf("a crashed heap keeps %d B of frames", got)
	}
	p, err = e.h.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cacheView(t, e.h, p), durable) {
		t.Error("reopened cache view differs from the durable image the crash left")
	}
	if err := e.h.Recover(p); err != nil {
		t.Fatal(err)
	}
	if err := e.h.CheckPool(p); err != nil {
		t.Error(err)
	}
	ref, err := e.h.Deref(live[0], isa.RZ)
	if err != nil {
		t.Fatal(err)
	}
	if w, err := ref.Load64(8); err != nil || w.V == 0xdead {
		t.Errorf("the unflushed store survived drop-all: %#x, %v", w.V, err)
	}
}

// The fault-tolerant layout over a sparse pool: RebuildFT derives checksums
// and parity for what exists and leaves the rest of the pool absent.
func TestSparseFTRebuild(t *testing.T) {
	e := newEnv(t, emit.Opt)
	p, err := e.h.CreateSizedFT("ft", sparsePoolBytes, DefaultLogBytes)
	if err != nil {
		t.Fatal(err)
	}
	var objs []oid.OID
	for i := 0; i < 8; i++ {
		o, err := e.h.Alloc(p, 256)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := e.h.Deref(o, isa.RZ)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Store64(0, uint64(i)+1, isa.RZ); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	if err := e.h.SyncPool(p); err != nil {
		t.Fatal(err)
	}
	if err := e.h.RebuildFT(p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.store.DumpBytes()["ft"], cacheView(t, e.h, p)) {
		t.Error("RebuildFT left the two images different")
	}
	if total := e.as.ResidentBytes() + e.store.ResidentBytes(); total > 256<<10 {
		t.Errorf("eight objects in a 48 MiB FT pool hold %d B, want <= 256 KiB", total)
	}
	st, err := e.h.ScrubPool(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repaired != 0 || st.Unrepairable != 0 {
		t.Errorf("scrub of a freshly rebuilt pool: %+v", st)
	}
	// A flipped payload bit is caught and repaired from parity.
	if !e.h.NV.FlipBit(uint32(p.ID()), objs[3].Offset(), 5, e.h) {
		t.Fatal("FlipBit refused")
	}
	st, err = e.h.ScrubPool(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repaired != 1 || st.Unrepairable != 0 {
		t.Errorf("scrub after one flip: %+v", st)
	}
}

// A pool_create or pool_open that fails late — here the POT is full — must
// leave no trace: nothing mapped, nothing open, and on create no name taken.
func TestMapPoolRollsBackOnFullPOT(t *testing.T) {
	const room = 4
	e := newEnv(t, emit.Base) // BASE, so the software table is rolled back too
	table, err := pot.New(e.as, room)
	if err != nil {
		t.Fatal(err)
	}
	e.h.POT = table
	var pools []*Pool
	for i := 0; i < room; i++ {
		pools = append(pools, e.create(t, fmt.Sprintf("p%d", i)))
	}
	open, mapped, stored := e.h.OpenPools(), e.as.MappedBytes(), len(e.store.byName)

	if _, err := e.h.Create("extra", testPoolBytes); err == nil {
		t.Fatal("create beyond the POT's capacity must fail")
	}
	if e.h.OpenPools() != open || e.as.MappedBytes() != mapped || len(e.store.byName) != stored {
		t.Errorf("failed create left open=%d mapped=%d stored=%d, want %d %d %d",
			e.h.OpenPools(), e.as.MappedBytes(), len(e.store.byName), open, mapped, stored)
	}
	if e.store.Exists("extra") {
		t.Error("failed create left the name in the store")
	}

	// The same for a failed open of an existing pool.
	if err := e.h.Close(pools[0]); err != nil {
		t.Fatal(err)
	}
	extra, err := e.h.Create("extra", testPoolBytes)
	if err != nil {
		t.Fatalf("create after a close freed a POT entry: %v", err)
	}
	mapped = e.as.MappedBytes()
	if _, err := e.h.Open("p0"); err == nil {
		t.Fatal("open beyond the POT's capacity must fail")
	}
	if e.h.OpenPools() != room || e.as.MappedBytes() != mapped {
		t.Errorf("failed open left open=%d mapped=%d, want %d %d", e.h.OpenPools(), e.as.MappedBytes(), room, mapped)
	}
	if err := e.h.Close(extra); err != nil {
		t.Fatal(err)
	}
	p0, err := e.h.Open("p0")
	if err != nil {
		t.Fatalf("open after the failed one: %v", err)
	}
	if _, err := e.h.Alloc(p0, 64); err != nil {
		t.Error(err)
	}
}
