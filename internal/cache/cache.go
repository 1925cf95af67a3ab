// Package cache provides the set-associative LRU tag-array model used for
// every cache-like structure in the simulated machine: L1/L2/L3 data and
// instruction caches and the TLBs. Only tags are modelled — data is
// functional and lives in internal/vm — which is exactly what a timing
// simulator needs.
package cache

import "fmt"

// Config describes a cache's geometry.
type Config struct {
	// Name labels the cache in stats output ("L1D", "DTLB", ...).
	Name string
	// Sets and Ways give the geometry. Sets must be a power of two.
	Sets, Ways int
	// LineShift is log2 of the block size: 6 for 64-byte cache lines, 12
	// for page-granularity structures such as TLBs.
	LineShift uint
	// Latency is the access latency in cycles charged on a hit.
	Latency uint64
}

// Geometry helpers for the paper's Table 4 configuration.
//
//potlint:allow unusedexport kept for TestConfigValidate
func (c Config) SizeBytes() int { return c.Sets * c.Ways << c.LineShift }

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: sets (%d) must be a positive power of two", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways (%d) must be positive", c.Name, c.Ways)
	}
	return nil
}

// Stats counts accesses.
type Stats struct {
	Hits, Misses uint64
}

// Accesses is the total number of look-ups.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate is misses / accesses (0 if never accessed).
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

// Cache is a set-associative tag array with true-LRU replacement. Tags and
// valid bits live in single contiguous arrays indexed by set*ways+way (the
// ways of one set are adjacent, most-recently-used first), so a whole set is
// one cache-line-friendly scan and building a cache is three allocations
// regardless of geometry.
type Cache struct {
	cfg      Config
	setMask  uint64
	tagShift uint
	tags     []uint64
	valid    []bool
	stats    Stats
}

// New builds a cache. It panics on an invalid configuration since cache
// geometry is fixed by the experiment setup, not user input.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:      cfg,
		setMask:  uint64(cfg.Sets - 1),
		tagShift: uintLog2(uint64(cfg.Sets)),
		tags:     make([]uint64, cfg.Sets*cfg.Ways),
		valid:    make([]bool, cfg.Sets*cfg.Ways),
	}
}

// set returns the tag and valid slices of the set holding addr, plus the tag
// to match.
func (c *Cache) set(addr uint64) (tags []uint64, valid []bool, tag uint64) {
	block := addr >> c.cfg.LineShift
	base := int(block&c.setMask) * c.cfg.Ways
	return c.tags[base : base+c.cfg.Ways], c.valid[base : base+c.cfg.Ways], block >> c.tagShift
}

// Access looks up the block containing addr, updating LRU state and
// statistics; on a miss the block is filled (victim = LRU way).
func (c *Cache) Access(addr uint64) (hit bool) {
	tags, valid, tag := c.set(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		if valid[w] && tags[w] == tag {
			moveToFront(tags, valid, w)
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	// Fill: evict LRU (last way), insert at MRU position.
	copy(tags[1:], tags[:c.cfg.Ways-1])
	copy(valid[1:], valid[:c.cfg.Ways-1])
	tags[0], valid[0] = tag, true
	return false
}

// Probe reports whether the block containing addr is present without
// touching LRU state or statistics.
//
//potlint:allow unusedexport kept for TestLRUEviction, TestProbeDoesNotPerturb and TestInvalidateAndFlush
func (c *Cache) Probe(addr uint64) bool {
	tags, valid, tag := c.set(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		if valid[w] && tags[w] == tag {
			return true
		}
	}
	return false
}

// Invalidate removes the block containing addr if present.
//
//potlint:allow unusedexport kept for TestInvalidateAndFlush
func (c *Cache) Invalidate(addr uint64) {
	tags, valid, tag := c.set(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		if valid[w] && tags[w] == tag {
			valid[w] = false
			return
		}
	}
}

// Flush empties the cache, keeping statistics.
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

// ResetStats zeroes the counters (e.g. after a warm-up phase).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Stats returns the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

func moveToFront(tags []uint64, valid []bool, w int) {
	t, v := tags[w], valid[w]
	copy(tags[1:w+1], tags[:w])
	copy(valid[1:w+1], valid[:w])
	tags[0], valid[0] = t, v
}

func uintLog2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
