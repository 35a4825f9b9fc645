package experiment

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func rosterNames(sw *Sweep) string {
	names := make([]string, len(sw.Algorithms))
	for i, a := range sw.Algorithms {
		names[i] = a.Name
	}
	return strings.Join(names, ",")
}

// TestFigureTable pins every column of the figure table against
// testdata/figures.golden, which was captured from the thirteen
// hand-written constructors, the report's claims map and its metrics
// switch before the table replaced them: one line per experiment, in
// report order.
func TestFigureTable(t *testing.T) {
	var got strings.Builder
	seen := map[string]bool{}
	for _, f := range FigureTable() {
		if seen[f.Name] {
			t.Errorf("duplicate figure name %q", f.Name)
		}
		seen[f.Name] = true
		if f.Check == nil {
			t.Errorf("%s has no checker", f.Name)
		}
		if len(f.Claims) == 0 {
			t.Errorf("%s records no claims", f.Name)
		}
		if byName, err := FigureByName(f.Name); err != nil || byName.Name != f.Name {
			t.Errorf("FigureByName(%q) = %q, %v", f.Name, byName.Name, err)
		}

		sw, ext := f.Sweep(Options{}), f.Sweep(Options{Extended: true})
		pat, err := sw.Pattern(0.5, sw.N)
		if err != nil {
			t.Fatalf("%s pattern at load 0.5: %v", f.Name, err)
		}
		var metrics []string
		for _, m := range f.Headline() {
			metrics = append(metrics, m.Name)
		}
		fmt.Fprintf(&got, "%s | %s | N=%d | loads=%v | %s | %s | %s | %s | claims=%d\n",
			sw.Name, sw.Title, sw.N, sw.Loads, rosterNames(sw), rosterNames(ext),
			pat, strings.Join(metrics, ","), len(f.Claims))
	}
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("figure table drifted from testdata/figures.golden:\n--- got\n%s--- want\n%s", got.String(), want)
	}

	figs := Figures(quick())
	if len(figs) != PaperFigures {
		t.Fatalf("Figures returned %d sweeps, want the first %d rows", len(figs), PaperFigures)
	}
	for _, f := range FigureTable()[:PaperFigures] {
		sw, ok := figs[f.Name]
		if !ok || sw.Name != f.Name || sw.Title != f.Sweep(quick()).Title {
			t.Errorf("Figures()[%q] = %+v", f.Name, sw)
		}
	}
	if _, err := FigureByName("fig99"); err == nil {
		t.Error("unknown figure resolved")
	}
}
