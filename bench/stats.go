package main

import "sort"

// percentileLadder lists the tail percentiles a timing may be reported at.
var percentileLadder = []float64{50, 75, 90, 95, 99}

// tailPercentile returns the highest percentile on the ladder that still has
// at least ten of n samples beyond it; 0 when even the median has not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// percentile reads the p-th percentile off an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p/100*float64(len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// timing summarises latency samples the way every timing in this benchmark
// is reported: the median, two tail percentiles, and the sample count. A tail
// the sample count cannot support (fewer than ten samples beyond it) is
// replaced by the highest percentile it can, which Supported names.
type timing struct {
	P50, P95, P99 float64
	Supported     float64
	N             int
	// Slices is non-zero when P50 and P95 are the first quartile over that
	// many slices of the samples (openResult.latency).
	Slices int
}

func summarise(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{N: len(s), P50: percentile(s, 50), Supported: tailPercentile(len(s))}
	if t.Supported == 0 {
		// Too few samples for any tail: the largest one is all there is.
		t.Supported = 100
	}
	t.P95 = percentile(s, min(95, t.Supported))
	t.P99 = percentile(s, min(99, t.Supported))
	return t
}
