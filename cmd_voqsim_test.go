package voqsim

// Golden tests of voqsim's attachments — -series, -trace,
// -metrics-every and -check on one invocation. The goldens were
// captured from the binary that re-simulated the run once per
// attachment; the one-pass binary must keep reproducing them byte for
// byte. Regenerate (only for a deliberate engine or format change) with:
//
//	go test -run TestCLIVoqsimAttachments -update-golden .

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runVoqsimIn runs voqsim with dir as its working directory, so file
// flags can be relative and the paths echoed on stdout stay stable.
func runVoqsimIn(t *testing.T, dir string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(buildTools(t), "voqsim"), args...)
	cmd.Dir = dir
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case ctx.Err() != nil:
		t.Fatalf("voqsim %v did not return within a minute", args)
	case errors.As(err, &ee):
		exit = ee.ExitCode()
	case err != nil:
		t.Fatalf("voqsim %v: %v", args, err)
	}
	return out.String(), errOut.String(), exit
}

func TestCLIVoqsimAttachments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	attach := []string{"-seed", "3", "-slots", "2000", "-series", "series.csv",
		"-trace", "trace.jsonl", "-metrics-every", "500", "-check"}
	cases := []struct {
		name string
		args []string
	}{
		{"fifoms8", []string{"-n", "8"}},
		{"mixed", []string{"-n", "8", "-traffic", "mixed", "-mcfrac", "0.3", "-maxfanout", "7"}},
		{"fattree4", []string{"-topology", "fattree:k=4"}},
		{"json", []string{"-n", "8", "-json"}},
		{"eslip8", []string{"-n", "8", "-algo", "eslip"}},
		{"wba8", []string{"-n", "8", "-algo", "wba"}},
		{"tatra8", []string{"-n", "8", "-algo", "tatra"}},
		{"oqfifo8", []string{"-n", "8", "-algo", "oqfifo"}},
		{"cioq8", []string{"-n", "8", "-algo", "cioq-s2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			stdout, stderr, exit := runVoqsimIn(t, dir, append(tc.args, attach...)...)
			if exit != 0 {
				t.Fatalf("exit %d\n%s", exit, stderr)
			}
			series, err := os.ReadFile(filepath.Join(dir, "series.csv"))
			if err != nil {
				t.Fatal(err)
			}
			trace, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(trace)
			checkGolden(t, "voqsim_attach_"+tc.name+".golden", fmt.Sprintf(
				"== stdout ==\n%s== stderr ==\n%s== trace.jsonl ==\nfnv1a64 %016x over %d bytes\n== series.csv ==\n%s",
				stdout, stderr, h.Sum64(), len(trace), series))
		})
	}
}

// TestCLIVoqsimResumeAttachments pins the -resume semantics of the
// attachments: they ride the one resumed run, so the report is the
// straight run's while the series and the checker cover only the slots
// this process simulated (from the snapshot's slot on).
func TestCLIVoqsimResumeAttachments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	args := []string{"-n", "8", "-seed", "3", "-slots", "2000"}
	want, _, exit := runVoqsimIn(t, dir, args...)
	if exit != 0 {
		t.Fatalf("straight run: exit %d", exit)
	}
	// Snapshots at 500, 1000 and 1500: the file left behind resumes at
	// slot 1500.
	if _, stderr, exit := runVoqsimIn(t, dir, append(args, "-checkpoint", "run.snap", "-checkpoint-every", "500")...); exit != 0 {
		t.Fatalf("checkpointed run: exit %d\n%s", exit, stderr)
	}
	got, stderr, exit := runVoqsimIn(t, dir, append(args, "-resume", "run.snap", "-check", "-series", "series.csv")...)
	if exit != 0 {
		t.Fatalf("resumed run: exit %d\n%s", exit, stderr)
	}
	wantOut := "series:               series.csv (500 points)\n" +
		"check:                ok (profile core/fifoms, 9 invariants, 500 slots)\n" + want
	if got != wantOut {
		t.Fatalf("resumed run with attachments:\ngot:\n%s\nwant:\n%s", got, wantOut)
	}
	series, err := os.ReadFile(filepath.Join(dir, "series.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(series)), "\n")
	if len(lines) != 501 || !strings.HasPrefix(lines[1], "1500,") || !strings.HasPrefix(lines[500], "1999,") {
		t.Fatalf("series of a run resumed at slot 1500: %d lines, first %q, last %q",
			len(lines), lines[1], lines[len(lines)-1])
	}
}

// TestCLIVoqsimRefusesBeforeSimulating pins that an attachment the
// run cannot honour — a checkpoint of a fast run — is refused before
// the run, not after it: at 10^12 slots the command only returns if it
// never starts simulating.
func TestCLIVoqsimRefusesBeforeSimulating(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	stdout, stderr, exit := runVoqsimIn(t, dir, "-fast", "-checkpoint", "c.snap", "-slots", "1000000000000")
	want := "voqsim: switchsim: fast mode cannot be checkpointed or resumed\n"
	if exit != 1 || stderr != want || stdout != "" {
		t.Fatalf("exit %d\nstdout: %q\nstderr: %q\nwant stderr: %q", exit, stdout, stderr, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "c.snap")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file left behind (stat: %v)", err)
	}
}
