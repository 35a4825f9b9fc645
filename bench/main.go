// Command bench is the repository's benchmark: eight named workloads,
// end-to-end throughput and memory on each, and a traced run that
// splits every workload's time by layer. README.md in this directory
// is the glossary; BENCHMARK.json at the repository root is the
// contract a driver runs it by.
//
//	go run ./bench                              every workload, untraced
//	go run ./bench -trace 1                     every workload, untraced then traced
//	go run ./bench -workload sw16-mcast         one workload
//	go run ./bench -selfcheck                   the untraced pass twice, compared
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with -trace 0, the per-layer ones with -trace 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// detailPrefix marks the line on which a workload run hands its full
// result to the process that started it.
const detailPrefix = "DETAIL "

func main() {
	var (
		workload  = flag.String("workload", "", "run this workload only, in this process (default: every workload, each in a fresh child process)")
		seed      = flag.Uint64("seed", 0, "workload seed; 0 means each workload's default (7, and 2004 for sweep-paper), the one its digest is pinned at")
		seconds   = flag.Float64("seconds", 8, "how long one workload run measures")
		trace     = flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics, spans written to bench/out/trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced pass twice and compare every end-to-end metric against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -help")
		os.Exit(2)
	}

	switch {
	case *workload != "":
		os.Exit(runOne(*workload, *seed, *seconds, *trace == 1))
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds))
	default:
		os.Exit(runAll(*seed, *seconds, *trace == 1))
	}
}

// outDir is where trace and summary files go, relative to the
// repository root the benchmark is run from.
const outDir = "bench/out"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne runs one workload in this process and prints its result: a
// table for people, the DETAIL line for a parent bench process, and
// last the one-line JSON object of the driver contract.
func runOne(name string, seed uint64, seconds float64, traced bool) int {
	w, err := loadWorkload(name)
	if err != nil {
		fatal(err)
	}
	if seed == 0 {
		seed = w.Seed
	}
	opt := runOptions{seed: seed, seconds: seconds, traced: traced, outDir: outDir}
	var res *result
	switch w.Kind {
	case kindSwitch, kindFabric:
		res, err = runSim(w, opt)
	case kindSweep:
		res, err = runSweep(w, opt)
	case kindVoqd:
		res, err = runVoqd(w, opt)
	default:
		err = fmt.Errorf("workload %s has unknown kind %q", w.Name, w.Kind)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	printResult(os.Stdout, res)
	detail, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s%s\n", detailPrefix, detail)
	fmt.Println(contractLine(res))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// runChild runs one workload in a fresh child process of this binary,
// so peak memory, garbage-collector state and pooled arenas do not
// leak from one workload into the next. The child's table is echoed;
// its DETAIL line is parsed and returned.
func runChild(name string, seed uint64, seconds float64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var res *result
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			res = new(result)
			if err := json.Unmarshal([]byte(rest), res); err != nil {
				return nil, fmt.Errorf("%s: unreadable result: %w", name, err)
			}
			break
		}
		fmt.Println(line)
	}
	if res == nil {
		return nil, fmt.Errorf("%s: child printed no result (%v)", name, runErr)
	}
	return res, nil
}

// pass runs every workload once, traced or not.
func pass(seed uint64, seconds float64, traced bool) ([]*result, error) {
	var out []*result
	for _, name := range workloadOrder {
		res, err := runChild(name, seed, seconds, traced)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// summary is the JSON a whole run ends with. The benchmark measures;
// it claims no gain, so Claim is always null, and it is last.
type summary struct {
	Env      envInfo   `json:"env"`
	Untraced []*result `json:"untraced"`
	Traced   []*result `json:"traced,omitempty"`
	Correct  bool      `json:"correct"`
	Claim    *string   `json:"claim"`
}

func runAll(seed uint64, seconds float64, traced bool) int {
	env := readEnv()
	fmt.Println("bench:", env)
	sum := summary{Correct: true}
	var err error
	if sum.Untraced, err = pass(seed, seconds, false); err != nil {
		fatal(err)
	}
	if traced {
		if sum.Traced, err = pass(seed, seconds, true); err != nil {
			fatal(err)
		}
	}
	env.LoadEnd = loadAvg1()
	sum.Env = env
	for _, r := range append(append([]*result(nil), sum.Untraced...), sum.Traced...) {
		if r.Failed > 0 {
			sum.Correct = false
		}
	}
	printSummary(os.Stdout, sum)
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := writeFile(outDir, "last-run.json", append(b, '\n')); err != nil {
		fatal(err)
	}
	fmt.Printf("{\"env\": %q, \"correct\": %t, \"summary_file\": %q, \"claim\": null}\n",
		env.String(), sum.Correct, outDir+"/last-run.json")
	if !sum.Correct {
		return 1
	}
	return 0
}
