package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"voqsim/internal/experiment"
)

// figureSlots is the per-point budget of the figure-row tests. CI runs
// TestFigureRowsMatchEngine with -v as its every-row step, so this is
// also the budget at which the logged verdicts are recorded.
const figureSlots = 2000

// TestFigureRowsMatchEngine pins `-figure NAME` to the row itself: for
// every row of the figure table, the JSON export is byte-identical to
// the row's own sweep written by WriteJSON. The claim verdict is
// logged, not asserted; a violated claim still exits 0.
func TestFigureRowsMatchEngine(t *testing.T) {
	for _, name := range experiment.FigureNames() {
		t.Run(name, func(t *testing.T) {
			fig, err := experiment.FigureByName(name)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := fig.Sweep(experiment.Options{Slots: figureSlots}).Run()
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := tbl.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), name+".json")
			stdout, _ := runCmd(t, "-figure", name, "-slots", strconv.Itoa(figureSlots), "-json", path)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("-figure %s JSON differs from the row's own sweep", name)
			}
			i := strings.LastIndex(stdout, "shape check:")
			if i < 0 {
				t.Fatalf("-figure %s printed no verdict:\n%s", name, stdout)
			}
			t.Logf("%s: %s", name, strings.TrimSpace(stdout[i:]))
		})
	}
}

// TestFigurePlotsAndExports is the whole surface of one row: its title,
// a plot, the verdict line and both exports.
func TestFigurePlotsAndExports(t *testing.T) {
	dir := t.TempDir()
	csvPath, jsonPath := filepath.Join(dir, "fig5.csv"), filepath.Join(dir, "fig5.json")
	stdout, _ := runCmd(t, "-figure", "fig5", "-slots", "3000", "-plots", "-csv", csvPath, "-json", jsonPath)
	for _, want := range []string{"Convergence rounds, Bernoulli b=0.2, 16x16", "x: effective load", "shape check: "} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
	for _, f := range []string{csvPath, jsonPath} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("export missing: %v", err)
		}
	}
}
