// Package asciiplot renders simple multi-series line charts as text,
// so `voqsweep -plots` can show the shape of each reproduced figure
// directly in the terminal next to its numeric table.
package asciiplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve. Ys must be parallel to the plot's Xs;
// +Inf marks saturated points (drawn at the top border), NaN marks
// missing points (not drawn).
type Series struct {
	Name string
	Ys   []float64
}

// Plot describes one chart.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Xs     []float64
	Series []Series
	// Height is the number of chart rows (default 16).
	Height int
	// Width is the number of chart columns (default 60).
	Width int
	// LogY plots log10(y); useful for delay curves that blow up near
	// saturation. Non-positive values are clamped to the axis floor.
	LogY bool
}

// markers assigns one rune per series, cycling if there are many.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Render draws the plot. It never fails: degenerate inputs (no data,
// constant series) produce a flat but valid chart.
func (p *Plot) Render() string {
	height := p.Height
	if height <= 0 {
		height = 16
	}
	width := p.Width
	if width <= 0 {
		width = 60
	}

	// Value transform and range.
	tr := func(y float64) float64 {
		if p.LogY {
			if y <= 0 {
				return math.Inf(-1) // clamped to floor later
			}
			return math.Log10(y)
		}
		return y
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	anyFinite := false
	for _, s := range p.Series {
		for _, y := range s.Ys {
			ty := tr(y)
			if math.IsNaN(ty) || math.IsInf(ty, 0) {
				continue
			}
			anyFinite = true
			lo = math.Min(lo, ty)
			hi = math.Max(hi, ty)
		}
	}
	if !anyFinite {
		lo, hi = 0, 1
	}
	if hi-lo < 1e-12 {
		hi = lo + 1
	}

	xlo, xhi := math.Inf(1), math.Inf(-1)
	for _, x := range p.Xs {
		xlo = math.Min(xlo, x)
		xhi = math.Max(xhi, x)
	}
	if len(p.Xs) == 0 || xhi-xlo < 1e-12 {
		xlo, xhi = 0, 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	col := func(x float64) int {
		c := int(math.Round((x - xlo) / (xhi - xlo) * float64(width-1)))
		return clamp(c, 0, width-1)
	}
	row := func(y float64) int {
		ty := tr(y)
		if math.IsInf(ty, 1) {
			return 0 // saturated: top border
		}
		if math.IsInf(ty, -1) {
			ty = lo
		}
		r := int(math.Round((hi - ty) / (hi - lo) * float64(height-1)))
		return clamp(r, 0, height-1)
	}

	for si, s := range p.Series {
		mk := markers[si%len(markers)]
		for i, y := range s.Ys {
			if i >= len(p.Xs) || math.IsNaN(y) {
				continue
			}
			grid[row(y)][col(p.Xs[i])] = mk
		}
	}

	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	yTop, yBot := hi, lo
	unit := ""
	if p.LogY {
		unit = " (log10)"
	}
	for r := 0; r < height; r++ {
		label := "          "
		switch r {
		case 0:
			label = fmt.Sprintf("%9.3g ", yTop)
		case height - 1:
			label = fmt.Sprintf("%9.3g ", yBot)
		}
		b.WriteString(label)
		b.WriteByte('|')
		b.Write(grid[r])
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", 10))
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%10s %-*.3g%*.3g\n", "", width/2, xlo, width-width/2, xhi)
	if p.XLabel != "" || p.YLabel != "" {
		fmt.Fprintf(&b, "%10s x: %s   y: %s%s\n", "", p.XLabel, p.YLabel, unit)
	}
	legend := make([]string, 0, len(p.Series))
	for si, s := range p.Series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	fmt.Fprintf(&b, "%10s %s\n", "", strings.Join(legend, "   "))
	return b.String()
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
