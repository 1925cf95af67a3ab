package mem

import (
	"potgo/internal/cache"
	"potgo/internal/obs"
)

// PublishMetrics adds a hierarchy-stats snapshot to the registry under
// "mem.": per-level hit/miss counters plus miss-rate gauges, CLWB and
// prefetch counts. Safe on a nil registry.
func (s Stats) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	level := func(name string, cs cache.Stats) {
		reg.Counter("mem." + name + ".hit").Add(cs.Hits)
		reg.Counter("mem." + name + ".miss").Add(cs.Misses)
		reg.Gauge("mem." + name + ".miss_rate").Set(cs.MissRate())
	}
	level("l1d", s.L1D)
	level("l2", s.L2)
	level("l3", s.L3)
	level("dtlb", s.DTLB)
	reg.Counter("mem.clwb").Add(s.CLWBs)
	reg.Counter("mem.prefetch").Add(s.Prefetches)
}
