package voqsim

// End-to-end tests of the command-line tools: each binary is built
// once into a temp dir and driven through its primary flows. These
// are the flows EXPERIMENTS.md tells readers to run, so they must not
// rot.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildTools compiles every cmd/ binary once per test process.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "voqsim-bins")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/...")
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Logf("build output:\n%s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return binDir
}

func runTool(t *testing.T, name string, stdin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), name), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIVoqsim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	out := runTool(t, "voqsim", "", "-algo", "fifoms", "-load", "0.6", "-slots", "5000")
	for _, want := range []string{"algorithm:", "fifoms", "stability:", "stable", "throughput:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("voqsim output missing %q:\n%s", want, out)
		}
	}
	// JSON mode emits a decodable report.
	out = runTool(t, "voqsim", "", "-algo", "oqfifo", "-load", "0.5", "-slots", "2000", "-json")
	if !strings.Contains(out, "\"Scheduler\": \"oqfifo\"") {
		t.Fatalf("voqsim -json output:\n%s", out)
	}
}

func TestCLIVoqsimSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	path := filepath.Join(t.TempDir(), "series.csv")
	runTool(t, "voqsim", "", "-algo", "fifoms", "-load", "0.5", "-slots", "4000", "-series", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "slot,backlog_cells") {
		t.Fatalf("series file header:\n%.80s", data)
	}
}

func TestCLIVoqsimCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	snap := filepath.Join(t.TempDir(), "run.snap")
	args := []string{"-algo", "fifoms", "-load", "0.5", "-slots", "4000", "-seed", "9"}

	// A checkpointed run leaves its latest snapshot behind and reports
	// exactly what an unobserved run does.
	want := runTool(t, "voqsim", "", args...)
	got := runTool(t, "voqsim", "", append(args, "-checkpoint", snap, "-checkpoint-every", "1000")...)
	if got != want {
		t.Fatalf("checkpointing changed the report:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}

	// Resuming the snapshot (taken at slot 3000 of 4000) replays only
	// the tail yet reproduces the full-run report byte for byte.
	got = runTool(t, "voqsim", "", append(args, "-resume", snap)...)
	if got != want {
		t.Fatalf("resumed report differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestCLIVoqsweep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	csvPath := filepath.Join(t.TempDir(), "sweep.csv")
	out := runTool(t, "voqsweep",
		"", "-loads", "0.3,0.6", "-slots", "3000", "-algos", "fifoms,oqfifo",
		"-metrics", "in_delay", "-csv", csvPath)
	if !strings.Contains(out, "fifoms") || !strings.Contains(out, "0.6") {
		t.Fatalf("voqsweep output:\n%s", out)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "sweep,algorithm,load,metric,value") {
		t.Fatalf("CSV header:\n%.80s", data)
	}
}

func TestCLIVoqsweepScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	scenario := filepath.Join(t.TempDir(), "s.json")
	err := os.WriteFile(scenario, []byte(`{
		"name": "cli-test", "n": 8, "slots": 2000, "seed": 3,
		"traffic": {"family": "uniform", "maxFanout": 4},
		"algorithms": ["fifoms"], "loads": [0.5]
	}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	out := runTool(t, "voqsweep", "", "-config", scenario, "-metrics", "throughput")
	if !strings.Contains(out, "cli-test") || !strings.Contains(out, "fifoms") {
		t.Fatalf("scenario output:\n%s", out)
	}
}

func TestCLIVoqtracePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	trace := runTool(t, "voqtrace", "", "record", "-slots", "2000", "-load", "0.5", "-n", "8")
	info := runTool(t, "voqtrace", trace, "info")
	if !strings.Contains(info, "ports:        8") {
		t.Fatalf("voqtrace info:\n%s", info)
	}
	run := runTool(t, "voqtrace", trace, "run", "-algo", "fifoms")
	if !strings.Contains(run, "fifoms") || !strings.Contains(run, "stable") {
		t.Fatalf("voqtrace run:\n%s", run)
	}
}

func TestCLIVoqreportSkipExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	out := runTool(t, "voqreport", "", "-slots", "2000", "-skip-extensions")
	for _, want := range []string{"# EXPERIMENTS", "## fig4", "## fig8", "Verdict"} {
		if !strings.Contains(out, want) {
			t.Fatalf("voqreport output missing %q", want)
		}
	}
}

// parseReady extracts the ingress and admin addresses from a voqd
// READY line.
func parseReady(t *testing.T, line string) (ingress []string, admin string) {
	t.Helper()
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, "ingress="); ok {
			ingress = strings.Split(v, ",")
		}
		if v, ok := strings.CutPrefix(f, "admin="); ok {
			admin = v
		}
	}
	if len(ingress) == 0 || admin == "" {
		t.Fatalf("unparseable READY line: %q", line)
	}
	return ingress, admin
}

// TestCLIVoqdSmoke is the daemon smoke flow the CI job runs: start
// voqd on ephemeral loopback ports, wait for READY, hit /healthz,
// push an echo load through voqload, and shut down cleanly on SIGTERM.
func TestCLIVoqdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	record := filepath.Join(t.TempDir(), "arrivals.jsonl")
	cmd := exec.Command(filepath.Join(buildTools(t), "voqd"),
		"-n", "4", "-seed", "7", "-slot-period", "50us", "-record", record)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatal("voqd exited before READY")
	}
	ready := sc.Text()
	if !strings.HasPrefix(ready, "READY ") {
		t.Fatalf("first voqd line: %q", ready)
	}
	ingress, admin := parseReady(t, ready)
	if len(ingress) != 4 {
		t.Fatalf("READY lists %d ingress ports, want 4", len(ingress))
	}

	resp, err := http.Get("http://" + admin + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"status": "ok"`) {
		t.Fatalf("healthz %d: %s", resp.StatusCode, body)
	}

	// 1k-packet echo through the voqload binary, receiver subscribed
	// over the admin API.
	out := runTool(t, "voqload", "",
		"-targets", strings.Join(ingress, ","),
		"-admin", admin,
		"-traffic", "uniform", "-load", "0.5", "-maxfanout", "2",
		"-slots", "1000", "-slot-rate", "20000", "-seed", "7", "-drain", "3s")
	resLine := ""
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "RESULT ") {
			resLine = line
		}
	}
	if resLine == "" {
		t.Fatalf("voqload printed no RESULT line:\n%s", out)
	}
	fields := map[string]string{}
	for _, f := range strings.Fields(strings.TrimPrefix(resLine, "RESULT ")) {
		if k, v, ok := strings.Cut(f, "="); ok {
			fields[k] = v
		}
	}
	sent, _ := strconv.ParseInt(fields["sent"], 10, 64)
	recvd, _ := strconv.ParseInt(fields["recv"], 10, 64)
	completed, _ := strconv.ParseInt(fields["completed"], 10, 64)
	if sent < 500 {
		t.Fatalf("voqload sent only %d frames:\n%s", sent, out)
	}
	if completed != sent || recvd < sent {
		t.Fatalf("echo incomplete: sent=%d recv=%d completed=%d\n%s", sent, recvd, completed, out)
	}

	// Clean shutdown on SIGTERM: DONE line, zero exit, transcript file.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var done string
	for sc.Scan() {
		done = sc.Text()
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("voqd exit: %v", err)
	}
	if !strings.HasPrefix(done, "DONE ") || !strings.Contains(done, "admitted="+fields["sent"]) {
		t.Fatalf("voqd DONE line %q does not account for %s sent frames", done, fields["sent"])
	}
	if fi, err := os.Stat(record); err != nil || fi.Size() == 0 {
		t.Fatalf("no arrival transcript at %s: %v", record, err)
	}

	// The recorded transcript replays clean under the checker with the
	// daemon's algo and seed — the operator-facing validation loop.
	blob, err := os.ReadFile(record)
	if err != nil {
		t.Fatal(err)
	}
	run := runTool(t, "voqtrace", string(blob), "run", "-algo", "fifoms", "-seed", "7", "-check")
	if !strings.Contains(run, "check: all invariants held") {
		t.Fatalf("voqtrace run -check on the daemon transcript:\n%s", run)
	}
}

// TestCLIVoqdCrashRecovery kills voqd hard (SIGKILL) and restarts it
// from its checkpoint: the resumed daemon must pick the slot clock up
// from the snapshot and deliver the backlog that was acknowledged
// (admitted) before the crash.
func TestCLIVoqdCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	ckpt := filepath.Join(t.TempDir(), "voqd.snap")
	start := func() (*exec.Cmd, []string, string) {
		cmd := exec.Command(filepath.Join(buildTools(t), "voqd"),
			"-n", "4", "-seed", "9", "-slot-period", "200us",
			"-checkpoint", ckpt, "-checkpoint-every", "200", "-resume")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() {
			t.Fatal("voqd exited before READY")
		}
		ingress, admin := parseReady(t, sc.Text())
		return cmd, ingress, admin
	}

	cmd, ingress, admin := start()
	defer func() { cmd.Process.Kill() }()

	// Offer a multicast load, then wait until at least one checkpoint
	// cadence has passed with traffic admitted.
	runTool(t, "voqload", "",
		"-targets", strings.Join(ingress, ","),
		"-traffic", "uniform", "-load", "0.8", "-maxfanout", "4",
		"-slots", "400", "-slot-rate", "5000", "-seed", "9", "-drain", "0s")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no clean shutdown
		t.Fatal(err)
	}
	cmd.Wait()

	cmd2, _, admin2 := start()
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()
	_ = admin

	// The resumed daemon reports a non-zero slot (picked up from the
	// snapshot, not from zero) and still serves its admin plane.
	resp, err := http.Get("http://" + admin2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m struct {
		Slot   int64 `json:"slot"`
		Daemon struct {
			Admitted int64 `json:"admitted_packets_total"`
		} `json:"daemon"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics: %v\n%s", err, body)
	}
	if m.Slot < 200 {
		t.Fatalf("resumed daemon reports slot %d; the checkpoint was at >= 200", m.Slot)
	}
	if m.Daemon.Admitted == 0 {
		t.Fatal("resumed daemon lost the admitted-packet accounting")
	}
}
