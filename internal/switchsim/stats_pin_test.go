package switchsim_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"voqsim/internal/experiment"
	"voqsim/internal/fabric"
	"voqsim/internal/roster"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// The statistics pin: every field of Results, and every output's
// per-copy delay mean and standard deviation, in exact hexadecimal,
// for every roster architecture at N = 16 and 65, a lossy fat tree,
// fast-mode runs and checkpoint-resume runs. The delivery goldens fold
// in only the copy counts and two delay means; this file holds the
// rest of what a run prints — the unicast/multicast split, P99, the
// per-output series — so a change to how statistics are gathered must
// reproduce them bit for bit.
//
// Regenerate (only when a statistic is meant to change):
//
//	go test -run TestStatisticsPin -update-golden ./internal/switchsim/

var statsPinPath = filepath.Join("testdata", "stats_pin.golden")

// statsPinPattern is multicast Bernoulli traffic at load 0.5: mean
// fanout 2, so unicast and multicast packets both complete.
func statsPinPattern(n int) traffic.Pattern {
	return traffic.Bernoulli{P: 0.25, B: 2.0 / float64(n)}
}

func statsPinSlots(n int) int64 {
	if n > 16 {
		return 1000
	}
	return 3000
}

// statsPinRow runs one case and renders its line: name, every Results
// field, then the per-output series.
func statsPinRow(tb testing.TB, name string, r *switchsim.Runner, res switchsim.Results) string {
	tb.Helper()
	var b strings.Builder
	b.WriteString(name)
	dumpHex(&b, "", reflect.ValueOf(res))
	for out := 0; out < r.Switch().Ports(); out++ {
		w := r.Tracker().OutputOrientedFor(out)
		fmt.Fprintf(&b, " out%d=%d/%s/%s", out, w.Count(),
			hexFloat(w.Mean()), hexFloat(w.StdDev()))
	}
	return b.String()
}

func hexFloat(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// dumpHex writes every leaf field of v as " path=value", floats in
// exact hexadecimal.
func dumpHex(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(b, " %s=nil", path)
			return
		}
		dumpHex(b, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			p := v.Type().Field(i).Name
			if path != "" {
				p = path + "." + p
			}
			dumpHex(b, p, v.Field(i))
		}
	case reflect.Float64:
		fmt.Fprintf(b, " %s=%s", path, hexFloat(v.Float()))
	default:
		fmt.Fprintf(b, " %s=%v", path, v.Interface())
	}
}

// statsPinRunner builds one case the way the facade does: the switch
// on Split("switch", 0), the traffic on Split("traffic", 0).
func statsPinRunner(tb testing.TB, alg experiment.Algorithm, n int, cfg switchsim.Config, pat traffic.Pattern) *switchsim.Runner {
	tb.Helper()
	root := xrand.New(cfg.Seed)
	return switchsim.New(alg.New(n, root.Split("switch", 0)), pat, cfg, root.Split("traffic", 0))
}

func statsPinLines(t *testing.T) []string {
	var lines []string
	run := func(name string, alg experiment.Algorithm, n int, cfg switchsim.Config, pat traffic.Pattern) switchsim.Results {
		r := statsPinRunner(t, alg, n, cfg, pat)
		res := r.Run(alg.Name)
		lines = append(lines, statsPinRow(t, name, r, res))
		return res
	}
	const seed = 11

	// Every architecture, exact statistics.
	for _, alg := range roster.All() {
		for _, n := range []int{16, 65} {
			cfg := switchsim.Config{Slots: statsPinSlots(n), Seed: seed}
			run(fmt.Sprintf("%s/n=%d", alg.Name, n), alg, n, cfg, statsPinPattern(n))
		}
	}

	// Fast mode: sampled delay statistics.
	for _, name := range []string{"fifoms", "islip", "oqfifo", "eslip"} {
		alg, err := experiment.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := switchsim.Config{Slots: 6000, Seed: seed, Fast: true}
		run(fmt.Sprintf("%s/n=16/fast", name), alg, 16, cfg, statsPinPattern(16))
	}

	// A lossy fat tree: one-entry links drop copies, and a packet that
	// lost one never completes.
	top, err := fabric.ParseSpec("fattree:k=4")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fifoms", "islip", "oqfifo", "tatra"} {
		alg, err := experiment.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		alg, err = experiment.WithTopology(alg, top, fabric.Config{LinkCapacity: 1, MaxInputCells: 4})
		if err != nil {
			t.Fatal(err)
		}
		n := top.Ingress()
		cfg := switchsim.Config{Slots: 1500, Seed: seed}
		res := run(fmt.Sprintf("%s/fattree4-lossy", name), alg, n, cfg, traffic.Bernoulli{P: 0.8, B: 0.12})
		if res.Fabric == nil || res.Fabric.DroppedCopies == 0 {
			t.Fatalf("%s: the lossy fat tree dropped nothing", name)
		}
	}

	// Checkpoint-resume: the resumed run's statistics, which must
	// equal the straight run's.
	for _, name := range []string{"fifoms", "islip", "oqfifo", "cioq-s2", "eslip", "tatra"} {
		alg, err := experiment.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := switchsim.Config{Slots: 2000, Seed: seed}
		want := run(fmt.Sprintf("%s/n=16/straight", name), alg, 16, cfg, statsPinPattern(16))
		var blob []byte
		ck := statsPinRunner(t, alg, 16, cfg, statsPinPattern(16))
		if _, err := ck.RunWithCheckpoints(alg.Name, 1237, func(_ int64, b []byte) error {
			if blob == nil {
				blob = append([]byte(nil), b...)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		r := statsPinRunner(t, alg, 16, cfg, statsPinPattern(16))
		if err := r.Restore(alg.Name, blob); err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		got := r.Run(alg.Name)
		if !sameResults(got, want) {
			t.Errorf("%s: resumed run diverged:\n got %+v\nwant %+v", name, got, want)
		}
		lines = append(lines, statsPinRow(t, fmt.Sprintf("%s/n=16/resumed", name), r, got))
	}
	return lines
}

// TestStatisticsPin compares every pinned statistic against
// testdata/stats_pin.golden.
func TestStatisticsPin(t *testing.T) {
	got := []byte(strings.Join(statsPinLines(t), "\n") + "\n")
	if *updateGolden {
		if err := os.WriteFile(statsPinPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(statsPinPath)
	if err != nil {
		t.Fatalf("reading %s (run with -update-golden to create it): %v", statsPinPath, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("statistics pin line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("statistics pin has %d lines, golden has %d", len(gl), len(wl))
}
