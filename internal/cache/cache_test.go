package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{Name: "t", Sets: 4, Ways: 2, LineShift: 6, Latency: 3})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "a", Sets: 0, Ways: 1},
		{Name: "b", Sets: 3, Ways: 1},
		{Name: "c", Sets: 4, Ways: 0},
		{Name: "e", Sets: 1, Ways: 4, LineShift: 0},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v must be invalid", cfg)
		}
	}
	good := Config{Name: "d", Sets: 64, Ways: 8, LineShift: 6}
	if err := good.Validate(); err != nil {
		t.Errorf("config %+v must be valid: %v", good, err)
	}
	if good.SizeBytes() != 64*8*64 {
		t.Errorf("SizeBytes = %d", good.SizeBytes())
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New must panic on invalid config")
		}
	}()
	New(Config{Sets: 3, Ways: 1})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x1000) {
		t.Error("cold access must miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access must hit")
	}
	// Same line, different byte: hit.
	if !c.Access(0x1001) {
		t.Error("same-line access must hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 sets, 2 ways, 64B lines: same set every 4 lines
	// Three conflicting lines in set 0: strides of 4*64 = 256 bytes.
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a) // miss, set={a}
	c.Access(b) // miss, set={b,a}
	c.Access(a) // hit,  set={a,b}
	c.Access(d) // miss, evicts LRU=b, set={d,a}
	if !c.Probe(a) {
		t.Error("a (MRU before fill) must survive")
	}
	if c.Probe(b) {
		t.Error("b (LRU) must have been evicted")
	}
	if !c.Probe(d) {
		t.Error("d must be resident after fill")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := small()
	c.Access(0)
	before := c.Stats()
	if !c.Probe(0) || c.Probe(0x100000) {
		t.Error("probe results wrong")
	}
	if c.Stats() != before {
		t.Error("Probe must not change stats")
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := small()
	c.Access(0)
	c.Invalidate(0)
	if c.Probe(0) {
		t.Error("invalidated line still present")
	}
	c.Invalidate(0x9999000) // absent: no-op
	c.Access(64)
	c.Access(128)
	c.Flush()
	if c.Probe(64) || c.Probe(128) {
		t.Error("flush must empty the cache")
	}
	if c.Stats().Accesses() == 0 {
		t.Error("flush must preserve stats")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty stats miss rate must be 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if got := s.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v", got)
	}
}

func TestFullyAssociativeBehavesAsLRUList(t *testing.T) {
	c := New(Config{Name: "fa", Sets: 1, Ways: 4, LineShift: 6})
	for i := uint64(0); i < 4; i++ {
		c.Access(i * 64)
	}
	c.Access(0)      // make line 0 MRU
	c.Access(4 * 64) // fill: evicts LRU = line 1
	if !c.Probe(0) {
		t.Error("line 0 must survive")
	}
	if c.Probe(64) {
		t.Error("line 1 must be evicted")
	}
	for _, l := range []uint64{2, 3, 4} {
		if !c.Probe(l * 64) {
			t.Errorf("line %d must be resident", l)
		}
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB("DTLB", 2, 30)
	if p := tlb.Access(0x1000); p != 30 {
		t.Errorf("cold TLB access penalty = %d", p)
	}
	if p := tlb.Access(0x1fff); p != 0 {
		t.Errorf("same-page access penalty = %d", p)
	}
	tlb.Access(0x2000) // second entry
	tlb.Access(0x1000) // make page 1 MRU
	tlb.Access(0x3000) // evict page 2
	if p := tlb.Access(0x1000); p != 0 {
		t.Error("MRU page must survive")
	}
	if p := tlb.Access(0x2000); p == 0 {
		t.Error("LRU page must have been evicted")
	}
	if tlb.Stats().Misses == 0 {
		t.Error("stats must accumulate")
	}
	tlb.Flush()
	if p := tlb.Access(0x1000); p != 30 {
		t.Error("flush must empty the TLB")
	}
}

// Property: a cache with W ways never evicts within a W-long reuse window in
// a single set (LRU stack property).
func TestQuickLRUStackProperty(t *testing.T) {
	f := func(seq []uint8) bool {
		c := New(Config{Name: "q", Sets: 1, Ways: 4, LineShift: 6})
		// Track a reference model: last 4 distinct lines accessed.
		var stack []uint64
		for _, s := range seq {
			line := uint64(s%16) * 64
			hit := c.Access(line)
			// reference
			found := -1
			for i, l := range stack {
				if l == line {
					found = i
					break
				}
			}
			refHit := found >= 0
			if refHit {
				stack = append(stack[:found], stack[found+1:]...)
			}
			stack = append([]uint64{line}, stack...)
			if len(stack) > 4 {
				stack = stack[:4]
			}
			if hit != refHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refLRU is a list-based LRU reference: per set, the ways in recency order
// (most recent first), each a block number and a valid bit, so that an
// invalidated way keeps its place in the order.
type refLRU struct {
	lineShift uint
	sets      [][]refWay
	stats     Stats
}

type refWay struct {
	block uint64
	valid bool
}

func newRefLRU(cfg Config) *refLRU {
	r := &refLRU{lineShift: cfg.LineShift, sets: make([][]refWay, cfg.Sets)}
	for i := range r.sets {
		r.sets[i] = make([]refWay, cfg.Ways)
	}
	return r
}

// find returns addr's set and block and the way holding it (-1 if absent).
func (r *refLRU) find(addr uint64) (set []refWay, block uint64, way int) {
	block = addr >> r.lineShift
	set = r.sets[block%uint64(len(r.sets))]
	for w, e := range set {
		if e.valid && e.block == block {
			return set, block, w
		}
	}
	return set, block, -1
}

func (r *refLRU) access(addr uint64) bool {
	set, block, w := r.find(addr)
	hit := w >= 0
	if hit {
		r.stats.Hits++
	} else {
		r.stats.Misses++
		w = len(set) - 1 // evict the least recently used way
	}
	copy(set[1:w+1], set[:w])
	set[0] = refWay{block, true}
	return hit
}

// invalidate drops addr's block and reports the way it held (-1 if absent).
func (r *refLRU) invalidate(addr uint64) int {
	set, _, w := r.find(addr)
	if w >= 0 {
		set[w].valid = false
	}
	return w
}

func (r *refLRU) flush() {
	for _, set := range r.sets {
		for w := range set {
			set[w].valid = false
		}
	}
}

// TestCacheMatchesReferenceLRU holds the one-word-tag cache to the list
// reference over random Access/Probe/Invalidate/Flush streams on several
// geometries, address 0 and ways invalidated mid-order included.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	geoms := []Config{
		{Name: "dm", Sets: 4, Ways: 1, LineShift: 6},
		{Name: "2way", Sets: 4, Ways: 2, LineShift: 6},
		{Name: "8way", Sets: 8, Ways: 8, LineShift: 6},
		{Name: "fa", Sets: 1, Ways: 16, LineShift: 12},
		{Name: "byte", Sets: 2, Ways: 4, LineShift: 0},
	}
	for _, cfg := range geoms {
		rng := rand.New(rand.NewSource(int64(cfg.Sets*100 + cfg.Ways)))
		c, ref := New(cfg), newRefLRU(cfg)
		// Enough distinct blocks to overflow every set, starting at 0.
		blocks := 3 * cfg.Sets * cfg.Ways
		var midInvalidations int
		for i := 0; i < 50000; i++ {
			addr := uint64(rng.Intn(blocks))<<cfg.LineShift | uint64(rng.Intn(1<<cfg.LineShift))
			if rng.Intn(8) == 0 {
				addr = 0
			}
			switch op := rng.Intn(100); {
			case op < 60:
				if got, want := c.Access(addr), ref.access(addr); got != want {
					t.Fatalf("%s op %d: Access(%#x) = %v, reference %v", cfg.Name, i, addr, got, want)
				}
			case op < 85:
				_, _, w := ref.find(addr)
				if got := c.Probe(addr); got != (w >= 0) {
					t.Fatalf("%s op %d: Probe(%#x) = %v, reference %v", cfg.Name, i, addr, got, w >= 0)
				}
			case op < 99:
				c.Invalidate(addr)
				if w := ref.invalidate(addr); w > 0 && w < cfg.Ways-1 {
					midInvalidations++
				}
			default:
				c.Flush()
				ref.flush()
			}
		}
		if cfg.Ways > 2 && midInvalidations == 0 {
			t.Errorf("%s: no way was invalidated in the middle of the LRU order", cfg.Name)
		}
		if c.Stats() != ref.stats {
			t.Errorf("%s: stats %+v, reference %+v", cfg.Name, c.Stats(), ref.stats)
		}
	}
}
