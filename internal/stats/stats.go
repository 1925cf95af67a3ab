// Package stats provides the small numeric and formatting helpers the
// experiment harness uses: geometric means (the paper reports GeoMean rows)
// and plain-text tables and bar charts for reproducing the paper's tables
// and figures on a terminal.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// GeoMean returns the geometric mean of xs.
//
// Edge cases are defined rather than fatal, because the inputs are measured
// speedup ratios and an aggregation helper must not take down a whole
// experiment grid:
//
//   - empty input returns 0 (no ratios, no mean — matches Mean);
//   - any zero returns 0 (the mathematical limit: one zero factor
//     annihilates the product);
//   - any negative value or NaN returns NaN (a negative ratio has no real
//     geometric mean; NaN is contagious, as in every float aggregate), so
//     a broken speedup computation surfaces as NaN in the rendered table
//     instead of a panic.
//
// +Inf inputs follow IEEE arithmetic: the mean is +Inf unless a zero is
// also present, in which case 0·∞ makes the result NaN.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var (
		sum     float64
		hasZero bool
	)
	for _, x := range xs {
		if x < 0 || math.IsNaN(x) {
			return math.NaN()
		}
		if x == 0 {
			// Keep scanning: a later negative/NaN still dominates.
			hasZero = true
			continue
		}
		sum += math.Log(x)
	}
	if hasZero {
		if math.IsInf(sum, 1) {
			return math.NaN() // 0 · ∞
		}
		return 0
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// Render formats the table as text.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, 0, len(t.Headers))
	for _, h := range t.Headers {
		widths = append(widths, len(h))
	}
	for _, row := range t.rows {
		for i, c := range row {
			for i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// Bar renders an ASCII bar for a value on a scale where `full` maps to
// width characters, annotated with the numeric value. Used to reproduce the
// paper's figures as terminal charts.
func Bar(value, full float64, width int) string {
	if full <= 0 || width <= 0 {
		return fmt.Sprintf("%6.2f", value)
	}
	n := int(value / full * float64(width))
	if n > width {
		n = width
	}
	if n < 0 {
		n = 0
	}
	return fmt.Sprintf("%s%s %5.2f", strings.Repeat("#", n), strings.Repeat(".", width-n), value)
}

// F formats a float with 2 decimals (table cells).
func F(v float64) string { return fmt.Sprintf("%.2f", v) }

// Pct formats a ratio as a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
