package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"voqsim/internal/asciiplot"
)

// formatValue renders one metric value; unstable/unreachable points
// print as "sat" (saturated), matching how the paper's curves shoot
// off the axis.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "sat"
	case math.IsNaN(v):
		return "-"
	case v != 0 && (math.Abs(v) >= 1e5 || math.Abs(v) < 1e-2):
		return strconv.FormatFloat(v, 'e', 2, 64)
	default:
		return strconv.FormatFloat(v, 'f', 3, 64)
	}
}

// FormatMetric renders one metric of the table as an aligned text
// grid: one row per algorithm, one column per load.
func (t *Table) FormatMetric(m Metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.Title, m.Label)

	widths := make([]int, len(t.Loads)+1)
	rows := make([][]string, 0, len(t.Algos)+1)
	header := []string{"load"}
	for _, l := range t.Loads {
		header = append(header, strconv.FormatFloat(l, 'g', 3, 64))
	}
	rows = append(rows, header)
	for ai, algo := range t.Algos {
		row := []string{algo}
		for li := range t.Loads {
			row = append(row, formatValue(m.ValueOf(t.Points[ai][li])))
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for c, cell := range row {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[c], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Format renders the given metrics one after another.
func (t *Table) Format(metrics ...Metric) string {
	var b strings.Builder
	for i, m := range metrics {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.FormatMetric(m))
	}
	return b.String()
}

// Plots renders one ASCII plot per metric against the swept load, one
// curve per algorithm, each preceded by a blank line so the text
// follows Format's grids directly.
func (t *Table) Plots(metrics ...Metric) string {
	var b strings.Builder
	for _, m := range metrics {
		p := asciiplot.Plot{
			Title:  fmt.Sprintf("%s — %s", t.Title, m.Label),
			XLabel: "effective load",
			YLabel: m.Name,
			Xs:     t.Loads,
			LogY:   m.Saturating,
		}
		for ai, algo := range t.Algos {
			ys := make([]float64, len(t.Loads))
			for li, pt := range t.Points[ai] {
				ys[li] = m.ValueOf(pt)
			}
			p.Series = append(p.Series, asciiplot.Series{Name: algo, Ys: ys})
		}
		b.WriteByte('\n')
		b.WriteString(p.Render())
	}
	return b.String()
}

// WriteCSV emits the table in long form: one record per (algorithm,
// load, metric) with the raw value, plus stability and run metadata.
func (t *Table) WriteCSV(w io.Writer, metrics ...Metric) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"sweep", "algorithm", "load", "metric", "value", "unstable", "slots", "seed"}); err != nil {
		return fmt.Errorf("experiment: writing CSV header: %w", err)
	}
	for ai, algo := range t.Algos {
		for li, load := range t.Loads {
			pt := t.Points[ai][li]
			for _, m := range metrics {
				rec := []string{
					t.Name, algo,
					strconv.FormatFloat(load, 'g', -1, 64),
					m.Name,
					strconv.FormatFloat(m.ValueOf(pt), 'g', -1, 64),
					strconv.FormatBool(pt.Results.Unstable),
					strconv.FormatInt(pt.Results.Slots, 10),
					strconv.FormatUint(pt.Results.Seed, 10),
				}
				if err := cw.Write(rec); err != nil {
					return fmt.Errorf("experiment: writing CSV record: %w", err)
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the full table, including every run's complete
// Results, as indented JSON.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("experiment: encoding table: %w", err)
	}
	return nil
}
