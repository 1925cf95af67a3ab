package nvmsim

import (
	"reflect"
	"testing"
)

// fakeMem is a two-image memory: cache[] is what the program sees, durable[]
// is what survives a crash. One pool, id 1.
type fakeMem struct {
	cache   []byte
	durable []byte
}

func newFakeMem(size int) *fakeMem {
	return &fakeMem{cache: make([]byte, size), durable: make([]byte, size)}
}

func (m *fakeMem) ReadCacheLine(pool, off uint32, dst *[LineBytes]byte) bool {
	if pool != 1 || int(off)+LineBytes > len(m.cache) {
		return false
	}
	copy(dst[:], m.cache[off:off+LineBytes])
	return true
}

func (m *fakeMem) WriteDurableWords(pool, off uint32, src *[LineBytes]byte, mask byte) {
	if pool != 1 || int(off)+LineBytes > len(m.durable) {
		return
	}
	for w := 0; w < wordsPerLine; w++ {
		if mask&(1<<w) != 0 {
			copy(m.durable[int(off)+w*8:int(off)+w*8+8], src[w*8:w*8+8])
		}
	}
}

func (m *fakeMem) ReadDurableLine(pool, off uint32, dst *[LineBytes]byte) bool {
	if pool != 1 || int(off)+LineBytes > len(m.durable) {
		return false
	}
	copy(dst[:], m.durable[off:off+LineBytes])
	return true
}

func (m *fakeMem) WriteCacheLine(pool, off uint32, src *[LineBytes]byte) bool {
	if pool != 1 || int(off)+LineBytes > len(m.cache) {
		return false
	}
	copy(m.cache[off:off+LineBytes], src[:])
	return true
}

func (m *fakeMem) store(d *Domain, off uint32, b []byte) {
	d.Store(1, off, uint32(len(b)))
	copy(m.cache[off:], b)
}

func bytesAt(b []byte, off, n int) []byte { return b[off : off+n] }

func TestStoreCLWBFenceLifecycle(t *testing.T) {
	m := newFakeMem(4 * LineBytes)
	d := NewDomain()
	d.AddPool(1, uint64(len(m.cache)))

	m.store(d, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if got := len(d.volatileSet()); got != 1 {
		t.Fatalf("after store: %d volatile lines, want 1", got)
	}
	// CLWB alone is not durability.
	d.CLWB(1, 0, m)
	if m.durable[0] != 0 {
		t.Fatal("CLWB without SFENCE must not reach the durable view")
	}
	if got := len(d.volatileSet()); got != 1 {
		t.Fatalf("in-flight line must still be volatile, got %d", got)
	}
	// The fence drains it.
	d.SFence(m)
	if !reflect.DeepEqual(bytesAt(m.durable, 0, 8), []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("SFENCE did not drain: durable = %v", bytesAt(m.durable, 0, 8))
	}
	if got := len(d.volatileSet()); got != 0 {
		t.Fatalf("after fence: %d volatile lines, want 0", got)
	}
	if got := d.Events(); got != 3 {
		t.Fatalf("store+clwb+sfence = %d events, want 3", got)
	}
}

func TestRedirtiedLineStaysVolatile(t *testing.T) {
	m := newFakeMem(2 * LineBytes)
	d := NewDomain()
	d.AddPool(1, uint64(len(m.cache)))

	m.store(d, 0, []byte{0xAA})
	d.CLWB(1, 0, m)
	// Newer store after the write-back snapshot: the fence must persist the
	// snapshot (0xAA), and the line must stay volatile for the newer value.
	m.store(d, 0, []byte{0xBB})
	d.SFence(m)
	if m.durable[0] != 0xAA {
		t.Fatalf("fence persisted %#x, want the CLWB-time snapshot 0xAA", m.durable[0])
	}
	if got := len(d.volatileSet()); got != 1 {
		t.Fatalf("re-dirtied line must remain volatile, got %d lines", got)
	}
	// Crash drop-all: the newer value dies.
	d.Crash(DropAllPolicy(), m)
	if m.durable[0] != 0xAA {
		t.Fatalf("drop-all crash kept %#x, want 0xAA", m.durable[0])
	}
}

func TestStoreSpanningLines(t *testing.T) {
	m := newFakeMem(4 * LineBytes)
	d := NewDomain()
	d.AddPool(1, uint64(len(m.cache)))
	// 16 bytes straddling the line-0/line-1 boundary.
	m.store(d, LineBytes-8, make([]byte, 16))
	if got := len(d.volatileSet()); got != 2 {
		t.Fatalf("straddling store dirtied %d lines, want 2", got)
	}
}

func TestDropAllCrash(t *testing.T) {
	m := newFakeMem(4 * LineBytes)
	d := NewDomain()
	d.AddPool(1, uint64(len(m.cache)))

	m.store(d, 0, []byte{1})
	d.CLWB(1, 0, m)
	d.SFence(m) // durable
	m.store(d, LineBytes, []byte{2})
	m.store(d, 2*LineBytes, []byte{3})
	d.CLWB(1, 2*LineBytes, m) // in-flight, never fenced

	rep := d.Crash(DropAllPolicy(), m)
	if rep.Volatile != 2 || len(rep.Kept) != 0 {
		t.Fatalf("report = %+v, want 2 volatile 0 kept", rep)
	}
	if m.durable[0] != 1 || m.durable[LineBytes] != 0 || m.durable[2*LineBytes] != 0 {
		t.Fatalf("drop-all: durable = %v %v %v, want 1 0 0",
			m.durable[0], m.durable[LineBytes], m.durable[2*LineBytes])
	}
	if len(d.volatileSet()) != 0 {
		t.Fatal("crash must discard all volatile state")
	}
}

// TestKeepRandomDeterminism: same seed + same volatile set → identical
// outcome; different seeds eventually differ.
func TestKeepRandomDeterminism(t *testing.T) {
	run := func(seed uint64) (Report, []byte) {
		m := newFakeMem(16 * LineBytes)
		d := NewDomain()
		d.AddPool(1, uint64(len(m.cache)))
		for i := 0; i < 16; i++ {
			m.store(d, uint32(i*LineBytes), []byte{byte(i + 1)})
		}
		rep := d.Crash(KeepRandomPolicy(seed), m)
		return rep, append([]byte(nil), m.durable...)
	}
	repA, durA := run(42)
	repB, durB := run(42)
	if !reflect.DeepEqual(repA, repB) || !reflect.DeepEqual(durA, durB) {
		t.Fatal("same seed must reproduce the identical crash outcome")
	}
	differs := false
	for seed := uint64(0); seed < 16 && !differs; seed++ {
		rep, _ := run(seed)
		differs = !reflect.DeepEqual(rep.Kept, repA.Kept)
	}
	if !differs {
		t.Fatal("16 different seeds all produced the same outcome")
	}
	// keep-random survivors are whole lines.
	for _, k := range repA.Kept {
		if k.Mask != 0xFF {
			t.Fatalf("keep-random kept a partial line: %+v", k)
		}
	}
}

// TestTornCrash: torn lines persist only a subset of 8-byte words, and the
// word granularity is respected exactly.
func TestTornCrash(t *testing.T) {
	var rep Report
	var m *fakeMem
	// Find a seed that actually tears a line (mask not 0x00/0xFF).
	for seed := uint64(0); seed < 200; seed++ {
		m = newFakeMem(8 * LineBytes)
		d := NewDomain()
		d.AddPool(1, uint64(len(m.cache)))
		for i := 0; i < 8; i++ {
			line := make([]byte, LineBytes)
			for j := range line {
				line[j] = 0xCC
			}
			m.store(d, uint32(i*LineBytes), line)
		}
		rep = d.Crash(TornPolicy(seed), m)
		for _, k := range rep.Kept {
			if k.Mask != 0 && k.Mask != 0xFF {
				goto found
			}
		}
	}
	t.Fatal("no seed in 0..199 tore a line")
found:
	for _, k := range rep.Kept {
		for w := 0; w < wordsPerLine; w++ {
			got := m.durable[int(k.Line.Off)+w*8]
			if k.Mask&(1<<w) != 0 && got != 0xCC {
				t.Fatalf("line %v word %d: kept per mask %02x but durable is %#x", k.Line, w, k.Mask, got)
			}
			if k.Mask&(1<<w) == 0 && got != 0 {
				t.Fatalf("line %v word %d: dropped per mask %02x but durable is %#x", k.Line, w, k.Mask, got)
			}
		}
	}
}

// TestExplicitReplay: a recorded report replays to the identical durable
// image via its Explicit policy, and the KeptString round-trips.
func TestExplicitReplay(t *testing.T) {
	world := func() (*fakeMem, *Domain) {
		m := newFakeMem(16 * LineBytes)
		d := NewDomain()
		d.AddPool(1, uint64(len(m.cache)))
		for i := 0; i < 16; i++ {
			m.store(d, uint32(i*LineBytes), []byte{byte(i + 1), byte(i + 2)})
		}
		return m, d
	}
	m1, d1 := world()
	rep := d1.Crash(TornPolicy(7), m1)

	m2, d2 := world()
	rep2 := d2.Crash(rep.Explicit(), m2)
	if !reflect.DeepEqual(m1.durable, m2.durable) {
		t.Fatal("explicit replay did not reproduce the durable image")
	}
	if !reflect.DeepEqual(rep.Kept, rep2.Kept) {
		t.Fatalf("replay kept %v, original kept %v", rep2.Kept, rep.Kept)
	}

	// KeptString → ParseKept → same survivor set.
	keep, err := ParseKept(rep.KeptString())
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) != len(rep.Kept) {
		t.Fatalf("KeptString round-trip: %v vs %v", keep, rep.Kept)
	}
	for _, lo := range rep.Kept {
		if m, ok := keep[lo.Line]; !ok || m != lo.Mask {
			t.Fatalf("KeptString round-trip: %v vs %v", keep, rep.Kept)
		}
	}
	if _, err := ParseKept("none"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseKept("garbage"); err == nil {
		t.Fatal("ParseKept must reject malformed input")
	}
}

func TestArmCrashSignal(t *testing.T) {
	m := newFakeMem(4 * LineBytes)
	d := NewDomain()
	d.AddPool(1, uint64(len(m.cache)))

	m.store(d, 0, []byte{1}) // event 0
	d.Arm(2)                 // crash just before event 2 (the fence)
	crashed := func() (sig *CrashSignal) {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if sig, ok = AsCrashSignal(r); !ok {
					panic(r)
				}
			}
		}()
		d.CLWB(1, 0, m) // event 1
		d.SFence(m)     // event 2 — preempted
		return nil
	}()
	if crashed == nil || crashed.Event != 2 {
		t.Fatalf("expected CrashSignal at event 2, got %+v", crashed)
	}
	if m.durable[0] != 0 {
		t.Fatal("the armed event must not have happened")
	}
	// After the signal the domain is disarmed: the retried fence runs.
	d.SFence(m)
	if m.durable[0] != 1 {
		t.Fatal("disarmed fence must drain normally")
	}

	d.Arm(100)
	d.Disarm()
	d.SFence(m) // must not panic
}

func TestPolicyKindStrings(t *testing.T) {
	for _, k := range []Kind{DropAll, KeepRandom, Torn, Explicit} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind must reject unknown kinds")
	}
}

func TestCleanDiscardsVolatileState(t *testing.T) {
	m := newFakeMem(4 * LineBytes)
	d := NewDomain()
	d.AddPool(1, uint64(len(m.cache)))
	m.store(d, 0, []byte{9})
	d.CLWB(1, 0, m)
	m.store(d, LineBytes, []byte{8})
	d.Clean(1)
	if len(d.volatileSet()) != 0 {
		t.Fatal("Clean must drop dirty and in-flight state")
	}
	d.SFence(m)
	if m.durable[0] != 0 {
		t.Fatal("Clean must also drop in-flight snapshots")
	}
}

// TestCrashResolvesInflightRedirtiedLineFromCache pins what a crash does
// to a line that is in flight and dirty again: it is one volatile line,
// and a survivor takes the current cache bytes, not the CLWB snapshot.
func TestCrashResolvesInflightRedirtiedLineFromCache(t *testing.T) {
	m := newFakeMem(2 * LineBytes)
	d := NewDomain()
	d.AddPool(1, uint64(len(m.cache)))

	m.store(d, 0, []byte{0xAA})
	d.CLWB(1, 0, m) // snapshot 0xAA in flight
	m.store(d, 0, []byte{0xBB})
	if got := len(d.volatileSet()); got != 1 {
		t.Fatalf("in-flight, re-dirtied line counted %d times, want once", got)
	}
	rep := d.Crash(ExplicitPolicy(map[Line]byte{{Pool: 1, Off: 0}: 0xFF}), m)
	if rep.Volatile != 1 || len(rep.Kept) != 1 || len(rep.Dropped) != 0 {
		t.Fatalf("report = %+v, want one volatile line, kept", rep)
	}
	if m.durable[0] != 0xBB {
		t.Fatalf("surviving line holds %#x, want the current cache byte 0xBB", m.durable[0])
	}
	d.SFence(m)
	if m.durable[0] != 0xBB {
		t.Fatal("the crash must discard the in-flight snapshot too")
	}
}

// TestDomainHotPathAllocs gates the persist loop a transaction commit runs
// (stores, CLWBRange over them, SFENCE) at zero allocations once warm.
func TestDomainHotPathAllocs(t *testing.T) {
	m := newFakeMem(64 * LineBytes)
	d := NewDomain()
	d.AddPool(1, uint64(len(m.cache)))
	loop := func() {
		for off := uint32(0); off < 16*LineBytes; off += 40 {
			d.Store(1, off, 8)
		}
		d.CLWBRange(1, 0, 16*LineBytes, m)
		d.SFence(m)
	}
	loop()
	if n := testing.AllocsPerRun(100, loop); n != 0 {
		t.Fatalf("Store/CLWBRange/SFence loop allocates %.1f times per run, want 0", n)
	}
}

// BenchmarkDomainFence times one small commit (eight dirty lines flushed,
// one fence) with 1 and 1000 pools mapped, and again after a 10k-line
// fence has grown the pending list: the cost of a fence depends on the
// lines it drains, not on how many pools are mapped or how many lines an
// earlier fence drained.
func BenchmarkDomainFence(b *testing.B) {
	const poolBytes = 1 << 20
	for _, bc := range []struct {
		name  string
		pools int
		burst bool
	}{
		{"pools=1", 1, false},
		{"pools=1000", 1000, false},
		{"pools=1/after-10k-line-fence", 1, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := newFakeMem(poolBytes)
			d := NewDomain()
			for id := bc.pools; id >= 1; id-- {
				d.AddPool(uint32(id), poolBytes)
			}
			if bc.burst {
				for off := uint32(0); off < 10000*LineBytes; off += LineBytes {
					d.Store(1, off, 8)
					d.CLWB(1, off, m)
				}
				d.SFence(m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := uint32(i%1024) * 8 * LineBytes
				for off := base; off < base+8*LineBytes; off += LineBytes {
					d.Store(1, off, 8)
				}
				d.CLWBRange(1, base, 8*LineBytes, m)
				d.SFence(m)
			}
		})
	}
}
