package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"voqsim/internal/traffic"
)

// quick returns reduced-budget options for unit tests: small slot
// counts and a thinner load grid keep the full grid under a second.
func quick() Options {
	return Options{Slots: 4000, Seed: 99}
}

func TestAlgorithmsConstruct(t *testing.T) {
	for _, a := range AllAlgorithms() {
		sw := a.New(8, testRoot())
		if sw.Ports() != 8 {
			t.Fatalf("%s: Ports = %d", a.Name, sw.Ports())
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"fifoms", "tatra", "islip", "oqfifo", "pim", "2drr", "wba", "lqfms", "eslip", "fifoms-nosplit"} {
		a, err := ByName(name)
		if err != nil || a.Name != name {
			t.Fatalf("ByName(%q) = %v, %v", name, a.Name, err)
		}
	}
	a, err := ByName("fifoms-r3")
	if err != nil || a.Name != "fifoms-r3" {
		t.Fatalf("round-capped lookup: %v, %v", a.Name, err)
	}
	c, err := ByName("cioq-s2")
	if err != nil || c.Name != "cioq-s2" {
		t.Fatalf("cioq lookup: %v, %v", c.Name, err)
	}
	if sw := c.New(8, testRoot()); sw.Ports() != 8 {
		t.Fatal("cioq constructor broken")
	}
	if _, err := ByName("nonsense"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSweepRunsAndIsDeterministic(t *testing.T) {
	mk := func(workers int) *Table {
		s := &Sweep{
			Name: "t", Title: "test", N: 8,
			Loads:      []float64{0.2, 0.5},
			Algorithms: []Algorithm{FIFOMS, OQFIFO},
			Slots:      3000, Seed: 7, Workers: workers,
			Pattern: func(load float64, n int) (traffic.Pattern, error) {
				return traffic.BernoulliAtLoad(load, 0.25, n)
			},
		}
		tbl, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	a, b := mk(1), mk(4)
	for ai := range a.Points {
		for li := range a.Points[ai] {
			if a.Points[ai][li] != b.Points[ai][li] {
				t.Fatalf("worker count changed results at [%d][%d]:\n%+v\n%+v",
					ai, li, a.Points[ai][li], b.Points[ai][li])
			}
		}
	}
}

func TestSweepValidation(t *testing.T) {
	s := &Sweep{Name: "bad"}
	if _, err := s.Run(); err == nil {
		t.Fatal("empty sweep accepted")
	}
	s = &Sweep{Name: "bad", N: 8, Loads: []float64{0.5}}
	if _, err := s.Run(); err == nil {
		t.Fatal("sweep without algorithms accepted")
	}
}

func TestUnreachableLoadSkipped(t *testing.T) {
	s := &Sweep{
		Name: "t", N: 8,
		Loads:      []float64{0.5, 3.0}, // 3.0 unreachable with b=0.25 (max 2.0)
		Algorithms: []Algorithm{OQFIFO},
		Slots:      1000, Seed: 1,
		Pattern: func(load float64, n int) (traffic.Pattern, error) {
			return traffic.BernoulliAtLoad(load, 0.25, n)
		},
	}
	tbl, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Points[0][0].Skipped != "" {
		t.Fatal("reachable load skipped")
	}
	if tbl.Points[0][1].Skipped == "" {
		t.Fatal("unreachable load not skipped")
	}
	if v := InputDelay.ValueOf(tbl.Points[0][1]); !math.IsInf(v, 1) {
		t.Fatalf("skipped point metric = %v, want +Inf", v)
	}
}

func TestSeriesAndGet(t *testing.T) {
	tbl := smallTable(t)
	ys, err := tbl.Series("fifoms", InputDelay)
	if err != nil {
		t.Fatal(err)
	}
	if len(ys) != len(tbl.Loads) {
		t.Fatalf("series length %d", len(ys))
	}
	for _, y := range ys {
		if math.IsNaN(y) || y < 1 {
			t.Fatalf("implausible delay %v", y)
		}
	}
	if _, err := tbl.Series("nope", InputDelay); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := tbl.Get("fifoms", 99); err == nil {
		t.Fatal("bad load index accepted")
	}
}

var cachedSmall *Table

func smallTable(t *testing.T) *Table {
	t.Helper()
	if cachedSmall != nil {
		return cachedSmall
	}
	s := &Sweep{
		Name: "small", Title: "small test sweep", N: 8,
		Loads:      []float64{0.2, 0.6},
		Algorithms: []Algorithm{FIFOMS, ISLIP},
		Slots:      3000, Seed: 5,
		Pattern: func(load float64, n int) (traffic.Pattern, error) {
			return traffic.BernoulliAtLoad(load, 0.25, n)
		},
	}
	tbl, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	cachedSmall = tbl
	return tbl
}

func TestFormatMetric(t *testing.T) {
	tbl := smallTable(t)
	out := tbl.FormatMetric(InputDelay)
	for _, want := range []string{"fifoms", "islip", "0.2", "0.6", InputDelay.Label} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatValueEdgeCases(t *testing.T) {
	if got := formatValue(math.Inf(1)); got != "sat" {
		t.Fatalf("Inf renders as %q", got)
	}
	if got := formatValue(math.NaN()); got != "-" {
		t.Fatalf("NaN renders as %q", got)
	}
	if got := formatValue(0); got != "0.000" {
		t.Fatalf("0 renders as %q", got)
	}
	if got := formatValue(123456); !strings.Contains(got, "e") {
		t.Fatalf("large value renders as %q", got)
	}
}

func TestCSVRoundTrippable(t *testing.T) {
	tbl := smallTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf, InputDelay, AvgQueue); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 2 algos * 2 loads * 2 metrics
	if len(lines) != 1+8 {
		t.Fatalf("CSV has %d lines, want 9:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "sweep,algorithm,load,metric,value") {
		t.Fatalf("CSV header %q", lines[0])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tbl := smallTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTableJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tbl.Name || len(got.Points) != len(tbl.Points) {
		t.Fatalf("round trip mismatch")
	}
	if got.Points[0][0].Results != tbl.Points[0][0].Results {
		t.Fatal("results changed in round trip")
	}
}

func TestReadTableJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadTableJSON(strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := ReadTableJSON(strings.NewReader(`{"name":"x","algorithms":["a"],"loads":[1],"points":[]}`)); err == nil {
		t.Fatal("inconsistent table accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.N != 16 || o.Seed != 2004 {
		t.Fatalf("defaults: %+v", o)
	}
	if len(Options{Extended: true}.algorithms()) <= len(Options{}.algorithms()) {
		t.Fatal("Extended roster not larger")
	}
	if got := (Options{Loads: []float64{0.5}}).loads(defaultLoads); len(got) != 1 {
		t.Fatal("load override ignored")
	}
}
