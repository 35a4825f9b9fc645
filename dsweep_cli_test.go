package voqsim

// Multi-process tests of the distributed sweep CLI: a real `voqsweep
// -serve` coordinator process plus real `-worker` processes over
// loopback TCP must render the exact bytes of the single-process
// goldens — for any fleet size, with a resume directory, and with a
// worker SIGKILLed mid-sweep.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// sweepServer is one `voqsweep -serve` process with its streams split:
// stdout is the golden surface, stderr carries the READY line and
// fleet diagnostics.
type sweepServer struct {
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr *lineTee
	addr   string
	done   chan error
}

// lineTee buffers a stream while letting tests wait for marker lines.
// eof closes once the stream has been read to its end: exec.Cmd.Wait
// closes a StderrPipe, so the process may be waited for only after
// that.
type lineTee struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines chan string
	eof   chan struct{}
}

func newLineTee() *lineTee {
	return &lineTee{lines: make(chan string, 64), eof: make(chan struct{})}
}

func (lt *lineTee) run(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		lt.mu.Lock()
		lt.buf.WriteString(line + "\n")
		lt.mu.Unlock()
		select {
		case lt.lines <- line:
		default: // no listener; keep only the buffer
		}
	}
	close(lt.lines)
	close(lt.eof)
}

// String returns everything read so far.
func (lt *lineTee) String() string {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.buf.String()
}

// waitLine blocks until a stderr line containing marker arrives.
func (lt *lineTee) waitLine(t *testing.T, marker string, timeout time.Duration) string {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-lt.lines:
			if !ok {
				t.Fatalf("stderr closed before %q; so far:\n%s", marker, lt.String())
			}
			if strings.Contains(line, marker) {
				return line
			}
		case <-deadline:
			t.Fatalf("no %q line within %v; so far:\n%s", marker, timeout, lt.String())
		}
	}
}

// startSweepServer launches `voqsweep -serve 127.0.0.1:0 args...` and
// waits for its READY line.
func startSweepServer(t *testing.T, args ...string) *sweepServer {
	t.Helper()
	s := &sweepServer{stderr: newLineTee(), done: make(chan error, 1)}
	full := append([]string{"-serve", "127.0.0.1:0"}, args...)
	s.cmd = exec.Command(filepath.Join(buildTools(t), "voqsweep"), full...)
	s.cmd.Stdout = &s.stdout
	ep, err := s.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go s.stderr.run(ep)
	go func() {
		<-s.stderr.eof
		s.done <- s.cmd.Wait()
	}()
	t.Cleanup(func() { s.cmd.Process.Kill() })

	ready := s.stderr.waitLine(t, "DSWEEP READY", 30*time.Second)
	fields := strings.Fields(ready)
	s.addr = fields[len(fields)-1]
	return s
}

// wait blocks until the coordinator exits and its stderr is drained,
// and returns its stdout.
func (s *sweepServer) wait(t *testing.T) string {
	t.Helper()
	select {
	case err := <-s.done:
		if err != nil {
			t.Fatalf("coordinator exit: %v\nstderr:\n%s", err, s.stderr.String())
		}
	case <-time.After(120 * time.Second):
		s.cmd.Process.Kill()
		t.Fatalf("coordinator did not exit\nstderr:\n%s", s.stderr.String())
	}
	return s.stdout.String()
}

func startSweepWorker(t *testing.T, addr, name string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), "voqsweep"),
		"-worker", addr, "-worker-name", name)
	cmd.Stdout = os.Stderr // workers print nothing on success; surface surprises
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	return cmd
}

// TestCLIDSweepGoldenFleets pins the distributed path to the exact
// single-process goldens: coordinator plus 1, 2 and 4 workers must
// render voqsweep_4x4.golden and its CSV byte for byte.
func TestCLIDSweepGoldenFleets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			csvPath := filepath.Join(t.TempDir(), "sweep.csv")
			srv := startSweepServer(t, goldenSweepArgs(csvPath)...)
			var procs []*exec.Cmd
			for i := 0; i < workers; i++ {
				procs = append(procs, startSweepWorker(t, srv.addr, fmt.Sprintf("w%d", i)))
			}
			out := srv.wait(t)
			for i, p := range procs {
				if err := p.Wait(); err != nil {
					t.Errorf("worker %d exit: %v", i, err)
				}
			}
			checkGolden(t, "voqsweep_4x4.golden", out)
			csv, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "voqsweep_4x4_csv.golden", string(csv))
		})
	}
}

// TestCLIDSweepFigureRows serves figure rows to a two-worker fleet:
// the coordinator sends the row as an ordinary scenario, so the
// workers resolve its roster names (cioq-sK, fifoms-rK) with no figure
// knowledge, and stdout — tables and claim verdict — equals a local
// run byte for byte.
func TestCLIDSweepFigureRows(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	for _, row := range []string{"speedup", "ablation-rounds"} {
		t.Run(row, func(t *testing.T) {
			args := []string{"-figure", row, "-slots", "2000"}
			want := runTool(t, "voqsweep", "", args...)
			srv := startSweepServer(t, args...)
			procs := []*exec.Cmd{startSweepWorker(t, srv.addr, "w0"), startSweepWorker(t, srv.addr, "w1")}
			out := srv.wait(t)
			for i, p := range procs {
				if err := p.Wait(); err != nil {
					t.Errorf("worker %d exit: %v", i, err)
				}
			}
			if out != want {
				t.Fatalf("served -figure %s differs from the local run\ngot:\n%s\nwant:\n%s", row, out, want)
			}
		})
	}
}

// TestCLIDSweepResumeDirGolden runs the distributed sweep against a
// resume directory twice: the second serve preloads every finished
// point from disk, completes without simulating, and still renders the
// goldens.
func TestCLIDSweepResumeDirGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	tmp := t.TempDir()
	dir := filepath.Join(tmp, "ckpt")

	csvPath := filepath.Join(tmp, "sweep1.csv")
	srv := startSweepServer(t, goldenSweepArgs(csvPath, "-resume-dir", dir)...)
	w := startSweepWorker(t, srv.addr, "w0")
	out := srv.wait(t)
	if err := w.Wait(); err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	checkGolden(t, "voqsweep_4x4.golden", out)

	// Leg 2: same directory, zero workers. Every point preloads, so
	// the coordinator finishes without any fleet at all.
	csvPath = filepath.Join(tmp, "sweep2.csv")
	srv = startSweepServer(t, goldenSweepArgs(csvPath, "-resume-dir", dir)...)
	out = srv.wait(t)
	checkGolden(t, "voqsweep_4x4.golden", out)
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "voqsweep_4x4_csv.golden", string(csv))
}

// TestCLIDSweepWorkerKill is the cross-process crash drill: SIGKILL a
// worker mid-sweep, let a replacement finish, and require the merged
// table to match a local run of the same flags byte for byte, with the
// kill visible in the coordinator's fleet counters.
func TestCLIDSweepWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	// Long points (~1s each) so the kill reliably lands mid-point.
	args := []string{
		"-n", "4", "-seed", "7", "-slots", "1500000",
		"-loads", "0.3,0.6", "-algos", "fifoms",
		"-traffic", "bernoulli", "-b", "0.3",
		"-metrics", "in_delay,avg_queue,throughput",
	}
	want := runTool(t, "voqsweep", "", args...)

	srv := startSweepServer(t, append([]string{"-progress"}, args...)...)
	victim := startSweepWorker(t, srv.addr, "victim")
	// Wait until the victim holds a lease, then kill it without
	// ceremony while it simulates.
	srv.stderr.waitLine(t, "lease 1:", 30*time.Second)
	time.Sleep(200 * time.Millisecond)
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()
	srv.stderr.waitLine(t, "re-leasing", 30*time.Second)

	healer := startSweepWorker(t, srv.addr, "healer")
	out := srv.wait(t)
	if err := healer.Wait(); err != nil {
		t.Fatalf("replacement worker exit: %v", err)
	}
	if out != want {
		t.Fatalf("distributed table after SIGKILL differs from local run\ngot:\n%s\nwant:\n%s", out, want)
	}
	logs := srv.stderr.String()
	if !strings.Contains(logs, "dsweep_workers_lost_total=1") {
		t.Errorf("fleet summary does not count the killed worker:\n%s", logs)
	}
	if !strings.Contains(logs, "dsweep_leases_reclaimed_total=") ||
		strings.Contains(logs, "dsweep_leases_reclaimed_total=0") {
		t.Errorf("fleet summary does not count the re-lease:\n%s", logs)
	}
}
