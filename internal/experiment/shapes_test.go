package experiment

import (
	"math"
	"testing"

	"voqsim/internal/switchsim"
	"voqsim/internal/xrand"
)

func testRoot() *xrand.Rand { return xrand.New(1) }

// shapeOptions are the reduced budgets at which the full figure shape
// checks are exercised in tests. 20k slots is enough for every
// qualitative claim to hold with margin (calibrated empirically); the
// full-budget runs live in `voqsweep -figure` and the benchmarks.
func shapeOptions() Options {
	return Options{Slots: 20_000, Seed: 2004}
}

// runShape runs the named row at the test budget, reports every claim
// its checker finds violated, and returns the table.
func runShape(t *testing.T, figure string) *Table {
	t.Helper()
	fig, err := FigureByName(figure)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := fig.Sweep(shapeOptions()).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fig.Check(tbl) {
		t.Errorf("%s: %s", tbl.Name, v)
	}
	return tbl
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shape checks take seconds")
	}
	runShape(t, "fig4")
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shape checks take seconds")
	}
	runShape(t, "fig5")
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shape checks take seconds")
	}
	runShape(t, "fig6")
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shape checks take seconds")
	}
	runShape(t, "fig7")
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shape checks take seconds")
	}
	runShape(t, "fig8")
}

func TestAblationSplittingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shape checks take seconds")
	}
	// Fanout splitting must not hurt, and the no-splitting variant must
	// saturate earlier or queue more at high load (the conclusion's
	// "necessary for high throughput" claim).
	tbl := runShape(t, "ablation-splitting")
	split := tbl.metricAt("fifoms", InputDelay, 0.8)
	whole := tbl.metricAt("fifoms-nosplit", InputDelay, 0.8)
	if !(whole >= split || math.IsInf(whole, 1)) {
		t.Errorf("no-splitting beat splitting at load 0.8: %.2f vs %.2f", whole, split)
	}
	if !tbl.stableAt("fifoms", 0.9) {
		t.Error("fifoms unstable at 0.9 in ablation")
	}
}

func TestAblationRoundsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shape checks take seconds")
	}
	// More rounds never hurt: delay at load 0.8 must be non-increasing
	// in the iteration budget (within noise).
	tbl := runShape(t, "ablation-rounds")
	r1 := tbl.metricAt("fifoms-r1", InputDelay, 0.8)
	full := tbl.metricAt("fifoms", InputDelay, 0.8)
	if full > r1*1.1+0.2 {
		t.Errorf("full convergence (%.2f) worse than one round (%.2f)", full, r1)
	}
}

// TestCheckersFlagBrokenTables builds a synthetic table with inverted
// results and verifies the fig4 checker actually fires — guarding
// against vacuous shape checks.
func TestCheckersFlagBrokenTables(t *testing.T) {
	loads := []float64{0.6, 0.9, 0.95}
	tbl := &Table{
		Name: "fig4", Title: "synthetic", N: 16,
		Loads: loads,
		Algos: []string{"fifoms", "tatra", "islip", "oqfifo"},
	}
	mk := func(algo string, delay, queue float64, unstable bool) []Point {
		pts := make([]Point, len(loads))
		for i, l := range loads {
			pts[i] = Point{Algorithm: algo, Load: l, Results: switchsim.Results{
				Algorithm:  algo,
				InputDelay: switchsim.Summary{Mean: delay},
				AvgQueue:   queue,
				Unstable:   unstable,
			}}
		}
		return pts
	}
	// Inverted world: fifoms slow, fat and unstable; tatra perfect.
	tbl.Points = [][]Point{
		mk("fifoms", 100, 100, true),
		mk("tatra", 1, 0.1, false),
		mk("islip", 1, 0.1, false),
		mk("oqfifo", 1, 0.1, false),
	}
	if len(tbl.CheckFig4()) == 0 {
		t.Fatal("fig4 checker passed an inverted table")
	}
}

func TestPointAtPicksNearestLoad(t *testing.T) {
	tbl := smallTable(t) // loads 0.2, 0.6
	pt, err := tbl.pointAt("fifoms", 0.55)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Load != 0.6 {
		t.Fatalf("nearest load = %v, want 0.6", pt.Load)
	}
}
