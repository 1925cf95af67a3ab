package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name string
		in   []float64
		want float64 // NaN means "require NaN"
	}{
		{"empty nil", nil, 0},
		{"empty slice", []float64{}, 0},
		{"single", []float64{3}, 3},
		{"pair", []float64{2, 8}, 4},
		{"ones", []float64{1, 1, 1}, 1},
		{"tiny values stay finite", []float64{1e-300, 1e-300}, 1e-300},
		{"zero annihilates", []float64{1, 0}, 0},
		{"all zeros", []float64{0, 0}, 0},
		{"negative is NaN", []float64{2, -1}, nan},
		{"negative after zero is NaN", []float64{0, -1}, nan},
		{"NaN is contagious", []float64{2, nan}, nan},
		{"inf dominates", []float64{2, inf}, inf},
		{"zero times inf is NaN", []float64{0, inf}, nan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := GeoMean(tc.in)
			switch {
			case math.IsNaN(tc.want):
				if !math.IsNaN(g) {
					t.Errorf("GeoMean(%v) = %v, want NaN", tc.in, g)
				}
			case math.IsInf(tc.want, 1):
				if !math.IsInf(g, 1) {
					t.Errorf("GeoMean(%v) = %v, want +Inf", tc.in, g)
				}
			default:
				if math.Abs(g-tc.want) > 1e-12*math.Max(1, tc.want) {
					t.Errorf("GeoMean(%v) = %v, want %v", tc.in, g, tc.want)
				}
			}
		})
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean is 0")
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %v", m)
	}
}

// Property: geomean lies between min and max.
func TestQuickGeoMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("My Table", "Bench", "Value")
	tb.AddRow("LL", "1.96")
	tb.AddRow("LongerName", "2")
	out := tb.Render()
	if !strings.Contains(out, "My Table") || !strings.Contains(out, "Bench") {
		t.Error("render must include title and headers")
	}
	if !strings.Contains(out, "LongerName") {
		t.Error("render must include rows")
	}
	if len(tb.rows) != 2 {
		t.Error("Rows")
	}
	// Ragged rows don't panic.
	tb.AddRow("a", "b", "c")
	_ = tb.Render()
}

func TestBar(t *testing.T) {
	b := Bar(1.0, 2.0, 10)
	if !strings.HasPrefix(b, "#####.....") {
		t.Errorf("Bar = %q", b)
	}
	if !strings.Contains(b, "1.00") {
		t.Error("bar must include the value")
	}
	// Clamping.
	if over := Bar(5, 2, 10); !strings.HasPrefix(over, strings.Repeat("#", 10)) {
		t.Errorf("over-full bar = %q", over)
	}
	if under := Bar(-1, 2, 10); strings.Contains(under, "#") {
		t.Errorf("negative bar = %q", under)
	}
	if deg := Bar(1, 0, 10); deg == "" {
		t.Error("degenerate scale must still render")
	}
}

func TestFormatters(t *testing.T) {
	if F(1.234) != "1.23" {
		t.Error("F")
	}
	if Pct(0.325) != "32.5%" {
		t.Error("Pct")
	}
}
