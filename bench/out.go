package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// printResult renders one workload run for people: every metric by
// name with its unit, the sample count behind it and, for a timed
// median, the quartiles and per-repetition values beside it.
func printResult(w io.Writer, r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s) ==\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "why: %s\n", r.Why)
	fmt.Fprintf(w, "env: %s\n", r.Env)
	fmt.Fprintf(w, "%-34s %16s %-16s %8s  %s\n", "metric", "value", "unit", "n", "q1 .. q3 [per-repetition values]")
	for _, def := range catalogue {
		v, ok := r.Metrics[def.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-34s %16.6g %-16s %8d", def.Name, v.Value, v.Unit, v.N)
		if v.Raw != 0 {
			fmt.Fprintf(w, "  calibrated; raw wall-clock median %.6g;", v.Raw)
		}
		if len(v.Values) > 0 {
			vals := make([]string, len(v.Values))
			for i, x := range v.Values {
				vals[i] = fmt.Sprintf("%.5g", x)
			}
			fmt.Fprintf(w, "  %.5g .. %.5g [%s]", v.Q1, v.Q3, strings.Join(vals, " "))
		}
		fmt.Fprintln(w)
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(w, "skipped: %s\n", s)
	}
	for _, s := range r.Untraced {
		fmt.Fprintf(w, "untraced: %s\n", s)
	}
	for _, s := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", s)
	}
	for _, s := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", s)
	}
	fmt.Fprintf(w, "digest: %s (the pin %s applies at the workload's default seed)\n", r.Digest, r.Pinned)
	fmt.Fprintf(w, "ops: attempted=%d failed=%d correct=%t\n", r.Attempted, r.Failed, r.Failed == 0)
}

// contractLine is the one-line JSON object the driver reads: every
// end-to-end metric of BENCHMARK.json for an untraced run, every
// per-layer one for a traced run. A layer a workload does not exercise
// reads 0.
func contractLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, def := range catalogue {
		if endToEnd := def.Class == classDriver; endToEnd == r.Traced {
			continue // an untraced run prints end_to_end, a traced run per_layer
		}
		v := r.Metrics[def.Name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[def.Name] = mv{Value: v, Unit: def.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings cannot fail to encode
	}
	return string(b)
}

// layerMetrics is the subset of a run's metrics a trace file carries.
func layerMetrics(ms metricSet) metricSet {
	out := metricSet{}
	for name, v := range ms {
		if def, _ := metricByName(name); def.Class == classLayer {
			out[name] = v
		}
	}
	return out
}

func writeFile(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// writeTrace writes the spans kept in memory during a traced run.
func writeTrace(dir string, t traceFile) error {
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return writeFile(dir, "trace-"+t.Workload+".json", append(b, '\n'))
}

// printSummary is the whole run on one screen: a row per workload for
// the end-to-end metrics, then a row per workload for the layers.
func printSummary(w io.Writer, s summary) {
	fmt.Fprintf(w, "\n== summary ==\nenv: %s\n", s.Env)
	table := func(title string, runs []*result, classes ...metricClass) {
		if len(runs) == 0 {
			return
		}
		fmt.Fprintf(w, "\n%s\n", title)
		for _, def := range catalogue {
			in := false
			for _, c := range classes {
				in = in || def.Class == c
			}
			if !in {
				continue
			}
			var cells []string
			for _, r := range runs {
				if v, ok := r.Metrics[def.Name]; ok {
					cells = append(cells, fmt.Sprintf("%s=%.5g", r.Workload, v.Value))
				}
			}
			if len(cells) > 0 {
				fmt.Fprintf(w, "%-34s %-16s %s\n", def.Name, def.Unit, strings.Join(cells, "  "))
			}
		}
	}
	table("end to end (untraced; median over the timed repetitions)", s.Untraced, classDriver, classUser)
	table("per layer (traced pass)", s.Traced, classLayer)
	fmt.Fprintf(w, "\ncorrect: %t\n", s.Correct)
}

// runSelfcheck runs the untraced pass twice back to back and compares
// the two sets: a timed metric must agree within its bound, an exact
// one to the last bit.
func runSelfcheck(seed uint64, seconds float64) int {
	env := readEnv()
	fmt.Println("bench selfcheck:", env)
	first, err := pass(seed, seconds, false)
	if err != nil {
		fatal(err)
	}
	second, err := pass(seed, seconds, false)
	if err != nil {
		fatal(err)
	}
	env.LoadEnd = loadAvg1()
	fmt.Printf("\n== selfcheck: two untraced passes of the same code ==\nenv: %s\n", env)
	fmt.Printf("%-18s %-20s %16s %16s %10s %8s  %s\n", "workload", "metric", "first", "second", "rel.diff", "bound", "verdict")
	ok := true
	for i, a := range first {
		b := second[i]
		for _, def := range catalogue {
			if def.Class == classLayer {
				continue
			}
			va, inA := a.Metrics[def.Name]
			vb, inB := b.Metrics[def.Name]
			if !inA && !inB {
				continue
			}
			diff := math.Abs(relDiff(va.Value, vb.Value))
			pass := inA && inB && diff <= def.Bound
			bound := fmt.Sprintf("%.2f", def.Bound)
			if def.Exact {
				pass = inA && inB && math.Float64bits(va.Value) == math.Float64bits(vb.Value)
				bound = "exact"
			}
			verdict := "PASS"
			if !pass {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-18s %-20s %16.8g %16.8g %10.4f %8s  %s\n", a.Workload, def.Name, va.Value, vb.Value, diff, bound, verdict)
		}
		verdict := "PASS"
		if a.Digest != b.Digest || a.Failed > 0 || b.Failed > 0 {
			verdict, ok = "FAIL", false
		}
		fmt.Printf("%-18s %-20s %16s %16s %10s %8s  %s\n", a.Workload, "digest", a.Digest[len(a.Digest)-12:], b.Digest[len(b.Digest)-12:], "", "exact", verdict)
	}
	fmt.Printf("\nselfcheck: %s\n", map[bool]string{true: "PASS", false: "FAIL"}[ok])
	fmt.Println(`{"claim": null}`)
	if !ok {
		return 1
	}
	return 0
}
