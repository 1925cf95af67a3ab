package main

import "testing"

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {39, 50}, {40, 75}, {60, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {2000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("%d samples: reported p%g, want p%g", c.n, got, c.want)
		}
	}
	samples := make([]float64, 60)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	s := summarise(samples)
	if s.Supported != 75 || s.N != 60 || s.P50 != 30 || s.P95 != 45 || s.P99 != 45 {
		t.Errorf("summary of 1..60 = %+v", s)
	}
	if m := median([]float64{5, 1, 9}); m != 5 {
		t.Errorf("median = %g", m)
	}
}

func TestTraceFlagTakesBothForms(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace=1"}},
		{[]string{"--workload", "sim_grid", "--seed", "3", "--seconds", "16", "--trace", "0"},
			[]string{"--workload", "sim_grid", "--seed", "3", "--seconds", "16", "-trace=0"}},
		{[]string{"--trace", "1", "-quick"}, []string{"-trace=1", "-quick"}},
		{[]string{"-trace", "-seed", "1"}, []string{"-trace=1", "-seed", "1"}},
	} {
		got := normaliseArgs(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("%v became %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%v became %v, want %v", c.in, got, c.want)
			}
		}
	}
}
