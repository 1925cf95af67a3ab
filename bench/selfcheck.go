package main

import (
	"fmt"
	"math"
)

// selfcheck runs the untraced set twice on the same tree and holds the two
// against each other: an end-to-end metric may differ by no more than its
// bound, and a metric that is simulated or counted may not differ at all. A
// benchmark that cannot agree with itself cannot judge a change.
func selfcheck(o options) error {
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, w := range workloadNames {
			o.workload = w
			res, err := untraced(o)
			if err != nil {
				return err
			}
			sets[i][w] = res
			fmt.Printf("selfcheck: set %d %-14s verified %d, failed %d\n", i+1, w, res.Attempted, res.Failed)
		}
	}
	bad := 0
	fmt.Printf("\n%-14s %-42s %14s %14s %9s %9s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloadNames {
		a, b := sets[0][w], sets[1][w]
		if !a.Correct || !b.Correct {
			fmt.Printf("%-14s verification failed: %v %v\n", w, a.Failures, b.Failures)
			bad++
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if !d.on(w) || d.Traced || (d.Bound == 0 && !d.Exact) {
				continue
			}
			x, y := a.Metrics[d.Name], b.Metrics[d.Name]
			diff := math.Abs(y-x) / math.Max(math.Abs(x), math.SmallestNonzeroFloat64)
			if x == y {
				diff = 0
			}
			bound, verdict := fmt.Sprintf("%.1f%%", 100*d.Bound), "ok"
			if d.Exact {
				bound = "exact"
			}
			if diff > d.Bound {
				verdict = "DISAGREES"
				bad++
			}
			fmt.Printf("%-14s %-42s %14.6g %14.6g %8.2f%% %9s  %s\n", w, d.Name, x, y, 100*diff, bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d disagreement(s) between two runs of the same tree", bad)
	}
	fmt.Println("\nselfcheck: the two sets agree within every bound")
	return nil
}
