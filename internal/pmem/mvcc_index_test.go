package pmem

import (
	"testing"

	"potgo/internal/obs"
	"potgo/internal/oid"
)

// mvccMaxProbe is the bound the index tests hold look-ups to. At load
// factor <= 1 the longest slot list among a million uniformly hashed
// entries is about ln n / ln ln n ~ 8; a list twice that long means the
// table has stopped following its entry count.
const mvccMaxProbe = 16

// TestMVCCIndexScales: a million seeded objects cost a look-up no more
// entries than a thousand do, the table stays within a small multiple of
// its entries, and resolving through it allocates nothing.
func TestMVCCIndexScales(t *testing.T) {
	if testing.Short() {
		t.Skip("seeds a million objects")
	}
	const n = 1_000_000
	sh, _, oids := newSeededMVCC(t, n)
	m := sh.MVCC()

	s := m.IndexStats()
	if s.Entries != n || s.Versions != n {
		t.Fatalf("index holds %d entries / %d versions, want %d of each", s.Entries, s.Versions, n)
	}
	if s.MaxProbe > mvccMaxProbe {
		t.Fatalf("a look-up examines up to %d entries at %d objects, want <= %d", s.MaxProbe, n, mvccMaxProbe)
	}
	if s.Slots > 4*s.Entries {
		t.Fatalf("%d slots for %d entries, want <= 4x", s.Slots, s.Entries)
	}
	if s.Slots < s.Entries {
		t.Fatalf("%d slots for %d entries: load factor above 1", s.Slots, s.Entries)
	}

	pin := m.Pin()
	defer m.Unpin(pin)
	for i := 0; i < n; i += 997 {
		if _, ok := pin.SnapDeref(oids[i]); !ok {
			t.Fatalf("seeded object %d not visible", i)
		}
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		mvccBenchSink, _ = pin.SnapDeref(oids[i%n])
		i += 7919
	}); a != 0 {
		t.Fatalf("SnapDeref allocates %.1f times per look-up, want 0", a)
	}
}

// mvccCommit runs the commit path's publication step for one synthetic
// transaction: a fresh 8-byte image for every OID in put, a free for every
// OID in del. The objects are raw pool bytes (see newSeededMVCC).
func mvccCommit(t *testing.T, sh *Sharded, put, del []oid.OID) {
	t.Helper()
	st := &txState{}
	for _, o := range put {
		st.records = append(st.records, txRecord{kind: recAlloc, oid: o, size: 8})
	}
	for _, o := range del {
		st.records = append(st.records, txRecord{kind: recFree, oid: o})
	}
	if err := sh.Heap().mvccPublish(st); err != nil {
		t.Fatalf("mvccPublish: %v", err)
	}
}

// TestMVCCIndexGrowOrClean: replacing every object of a fixed-size working
// set by a brand-new one, round after round, never calling Reclaim — what
// a store's commit path does as tree nodes split and merge — must leave an
// index sized by the live set. The freed objects' entries are only ever
// unlinked by a full stripe sweeping itself before it would grow.
func TestMVCCIndexGrowOrClean(t *testing.T) {
	const (
		live   = 2000
		rounds = 50
	)
	sh, p, set := newSeededMVCC(t, live)
	m := sh.MVCC()
	next := set[live-1].Offset() + 8
	for r := 0; r < rounds; r++ {
		for i := range set {
			fresh := oid.New(p.ID(), next)
			next += 8
			mvccCommit(t, sh, []oid.OID{fresh}, []oid.OID{set[i]})
			set[i] = fresh
		}
	}

	s := m.IndexStats()
	if s.Slots > 4*live+mvStripes*mvMinSlots {
		t.Fatalf("%d slots after %d objects passed through a live set of %d, want <= 4x the live set",
			s.Slots, live*(rounds+1), live)
	}
	if s.Entries > s.Slots {
		t.Fatalf("%d entries in %d slots: load factor above 1", s.Entries, s.Slots)
	}
	if s.MaxProbe > mvccMaxProbe {
		t.Fatalf("a look-up examines up to %d entries, want <= %d", s.MaxProbe, mvccMaxProbe)
	}
	if pub, rec := m.Stats(); pub-rec != uint64(s.Versions) {
		t.Fatalf("publishes-reclaimed = %d, index holds %d versions", pub-rec, s.Versions)
	}
	pin := m.Pin()
	defer m.Unpin(pin)
	for _, o := range set {
		if _, ok := pin.SnapDeref(o); !ok {
			t.Fatalf("live object %v lost", o)
		}
	}
}

// TestMVCCIndexResetShrinks: a crash hands back everything the index grew
// to, and counts the versions it drops.
func TestMVCCIndexResetShrinks(t *testing.T) {
	sh, p, oids := newSeededMVCC(t, 10_000)
	m := sh.MVCC()
	if s := m.IndexStats(); s.Slots < len(oids) {
		t.Fatalf("index did not grow: %d slots for %d entries", s.Slots, len(oids))
	}
	m.Reset()
	if s := m.IndexStats(); s != (MVCCIndexStats{}) {
		t.Fatalf("index after Reset = %+v, want empty", s)
	}
	if pub, rec := m.Stats(); pub != uint64(len(oids)) || rec != pub {
		t.Fatalf("after Reset publishes=%d reclaimed=%d, want both %d", pub, rec, len(oids))
	}
	// The empty index serves and grows again.
	if err := m.Seed(sh.Heap(), p, oids[0], 8); err != nil {
		t.Fatalf("Seed after Reset: %v", err)
	}
	if got := m.ChainLen(oids[0]); got != 1 {
		t.Fatalf("chain length after reseed = %d, want 1", got)
	}
}

// TestMVCCPublishMetrics: the mirror's counters and index gauges reach the
// registry under pmem.mvcc.*, agree with the index walk, and stay away from
// heaps that never enabled MVCC and from a nil registry.
func TestMVCCPublishMetrics(t *testing.T) {
	sh, _, oids := newSeededMVCC(t, 5000)
	mvccCommit(t, sh, oids[:100], oids[100:200])
	sh.Heap().PublishMetrics(nil)

	reg := obs.NewRegistry()
	sh.Heap().PublishMetrics(reg)
	snap := reg.Snapshot()
	idx := sh.MVCC().IndexStats()
	pub, rec := sh.MVCC().Stats()
	if got := snap.Counters["pmem.mvcc.publishes"]; got != pub || pub != 5100 {
		t.Errorf("pmem.mvcc.publishes = %d, Stats says %d, want 5100", got, pub)
	}
	if got := snap.Counters["pmem.mvcc.reclaimed"]; got != rec {
		t.Errorf("pmem.mvcc.reclaimed = %d, Stats says %d", got, rec)
	}
	for name, want := range map[string]int{
		"pmem.mvcc.versions_live": idx.Versions,
		"pmem.mvcc.index_entries": idx.Entries,
		"pmem.mvcc.index_slots":   idx.Slots,
		"pmem.mvcc.max_probe":     idx.MaxProbe,
		"pmem.mvcc.epoch":         int(sh.MVCC().Epoch()),
	} {
		if got, ok := snap.Gauges[name]; !ok || got != float64(want) || want == 0 {
			t.Errorf("gauge %s = %v (present %v), want %d", name, got, ok, want)
		}
	}

	plain := obs.NewRegistry()
	newTestSharded(t, 1).Heap().PublishMetrics(plain)
	if _, ok := plain.Snapshot().Gauges["pmem.mvcc.epoch"]; ok {
		t.Error("a heap without MVCC published pmem.mvcc.* metrics")
	}
}
