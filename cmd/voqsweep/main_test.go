package main

import (
	"bytes"
	"strings"
	"testing"
)

// sweepArgs is a deliberately small grid so the whole command runs in
// well under a second.
var sweepArgs = []string{
	"-traffic", "uniform", "-maxfanout", "4",
	"-algos", "fifoms,islip",
	"-loads", "0.3,0.7",
	"-n", "8", "-slots", "2000", "-seed", "11",
}

func runCmd(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("voqsweep %v exited %d\nstderr: %s", args, code, errBuf.String())
	}
	return out.String(), errBuf.String()
}

// TestProgressLeavesStdoutByteIdentical is the -progress golden: the
// flag may only talk to stderr, so stdout with it on must equal stdout
// with it off, byte for byte.
func TestProgressLeavesStdoutByteIdentical(t *testing.T) {
	plain, plainErr := runCmd(t, sweepArgs...)
	withProgress, progressErr := runCmd(t, append([]string{"-progress"}, sweepArgs...)...)

	if withProgress != plain {
		t.Errorf("-progress changed stdout\nwithout: %q\nwith:    %q", plain, withProgress)
	}
	if plain == "" {
		t.Error("sweep produced no stdout at all")
	}
	if plainErr != "" {
		t.Errorf("unexpected stderr without -progress: %q", plainErr)
	}
	lines := strings.Split(strings.TrimSuffix(progressErr, "\n"), "\n")
	if want := 2 * 2; len(lines) != want { // one line per grid point
		t.Fatalf("-progress wrote %d stderr lines, want %d:\n%s", len(lines), want, progressErr)
	}
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "voqsweep: 4/4 ") || !strings.Contains(last, "eta") {
		t.Errorf("final progress line malformed: %q", last)
	}
}

// TestStdoutDeterministic pins that repeated runs with identical flags
// print identical tables regardless of worker count.
func TestStdoutDeterministic(t *testing.T) {
	first, _ := runCmd(t, sweepArgs...)
	again, _ := runCmd(t, append([]string{"-workers", "4"}, sweepArgs...)...)
	if first != again {
		t.Errorf("stdout differs across runs/worker counts\nfirst: %q\nagain: %q", first, again)
	}
}

// TestTopologySweepDeterministic pins that a multi-stage fabric sweep
// renders the fabric metrics and prints byte-identical tables for any
// worker count — fabric points must parallelise as cleanly as
// single-switch points.
func TestTopologySweepDeterministic(t *testing.T) {
	args := []string{
		"-topology", "fattree:k=4",
		"-algos", "fifoms,pim",
		"-traffic", "bernoulli", "-b", "0.12",
		"-loads", "0.2,0.4",
		"-slots", "2000", "-seed", "11",
		"-metrics", "in_delay,hops,drops",
	}
	first, _ := runCmd(t, append([]string{"-workers", "1"}, args...)...)
	again, _ := runCmd(t, append([]string{"-workers", "4"}, args...)...)
	if first != again {
		t.Errorf("fabric sweep stdout differs across worker counts\nfirst: %q\nagain: %q", first, again)
	}
	for _, want := range []string{"fattree:k=4", "fifoms@fattree:k=4", "switches traversed"} {
		if !strings.Contains(first, want) {
			t.Errorf("fabric sweep output missing %q:\n%s", want, first)
		}
	}
}

// TestParallelReplicationsDeterministic pins the -parallel surface: a
// replicated sweep prints byte-identical tables for any worker count,
// and differs from the single-run table only by the extra samples.
func TestParallelReplicationsDeterministic(t *testing.T) {
	args := append([]string{"-parallel", "3"}, sweepArgs...)
	first, _ := runCmd(t, append([]string{"-workers", "1"}, args...)...)
	again, _ := runCmd(t, append([]string{"-workers", "4"}, args...)...)
	if first != again {
		t.Errorf("replicated sweep stdout differs across worker counts\nfirst: %q\nagain: %q", first, again)
	}
	single, _ := runCmd(t, sweepArgs...)
	if first == single {
		t.Error("-parallel 3 printed the single-run table; replications were not merged")
	}
}

// TestParallelComposes pins that replications are ordinary units of
// work: a replicated sweep over a resume directory — first filling it,
// then loading every replication back from it — prints the plain
// replicated table, as does the fast engine under the checker and a
// figure row with its claim verdict.
func TestParallelComposes(t *testing.T) {
	for _, args := range [][]string{
		append([]string{"-parallel", "2"}, sweepArgs...),
		append([]string{"-parallel", "2", "-fast", "-check"}, sweepArgs...),
		{"-parallel", "2", "-figure", "fig5", "-loads", "0.5,0.9", "-slots", "1000"},
	} {
		want, _ := runCmd(t, args...)
		resumable := append([]string{"-resume-dir", t.TempDir()}, args...)
		for _, leg := range []string{"filling", "resuming"} {
			if got, _ := runCmd(t, resumable...); got != want {
				t.Errorf("%v: %s the resume directory changed stdout\ngot:  %q\nwant: %q", args, leg, got, want)
			}
		}
	}
}

// TestBadFlagFails: a bad flag value, or a flag that would change the
// traffic or switch a figure row fixes, fails with a message naming it
// and prints nothing on stdout.
func TestBadFlagFails(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-algos", "nosuch"}, "nosuch"},
		{[]string{"-figure", "fig4", "-config", "s.json"}, "-config"},
		{[]string{"-figure", "fig4", "-topology", "fattree:k=4"}, "-topology"},
		{[]string{"-figure", "fig4", "-b", "0.3"}, "-b"},
		{[]string{"-figure", "fig9"}, `unknown figure "fig9" (have ablation-criterion`},
	} {
		var out, errBuf bytes.Buffer
		if code := run(tc.args, &out, &errBuf); code == 0 {
			t.Errorf("%v accepted", tc.args)
		}
		if out.Len() != 0 {
			t.Errorf("%v wrote to stdout: %q", tc.args, out.String())
		}
		if !strings.Contains(errBuf.String(), tc.want) {
			t.Errorf("%v: stderr %q does not name %q", tc.args, errBuf.String(), tc.want)
		}
	}
}
