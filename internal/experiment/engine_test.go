package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voqsim/internal/traffic"
)

func TestRunShardsRunsEachShardOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		const total = 53
		var counts [total]atomic.Int64
		runShards(workers, total, nil, func(shard int) string {
			counts[shard].Add(1)
			return ""
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunShardsStealsFromSlowWorkers(t *testing.T) {
	// Make worker 0's first shard (shard 0) a straggler. With 2 workers
	// and 8 shards dealt round-robin, worker 0 owns {0,2,4,6}; if no one
	// stole, those could only run on worker 0 *after* the straggler. The
	// other worker must pick them up while shard 0 blocks.
	release := make(chan struct{})
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		var stolen atomic.Int64
		runShards(2, 8, nil, func(shard int) string {
			if shard == 0 {
				<-release
				return ""
			}
			if stolen.Add(1) == 7 {
				close(release) // every other shard completed while 0 blocked
			}
			return ""
		})
	}()
	select {
	case <-release:
	case <-time.After(30 * time.Second):
		t.Fatal("remaining shards never completed while shard 0 blocked: stealing is broken")
	}
	done.Wait()
}

func TestRunShardsProgress(t *testing.T) {
	const total = 12
	var events []Progress
	runShards(3, total, func(p Progress) {
		events = append(events, p) // serialized by the engine
	}, func(shard int) string {
		return "shard"
	})
	if len(events) != total {
		t.Fatalf("got %d progress events, want %d", len(events), total)
	}
	for i, p := range events {
		if p.Done != i+1 || p.Total != total {
			t.Fatalf("event %d: Done=%d Total=%d, want %d/%d", i, p.Done, p.Total, i+1, total)
		}
		if p.Label != "shard" {
			t.Fatalf("event %d: label %q", i, p.Label)
		}
		if p.Done < total && p.ETA <= 0 {
			t.Fatalf("event %d: no ETA with %d shards remaining", i, total-p.Done)
		}
		if p.Done == total && p.ETA != 0 {
			t.Fatalf("final event: nonzero ETA %v", p.ETA)
		}
	}
}

// determinismSweep is a small grid crossing a core-arena algorithm
// with a non-arena one, wide enough that several points share each
// worker's recycled arenas.
func determinismSweep(workers int, dir string) *Sweep {
	return &Sweep{
		Name:  "det",
		N:     8,
		Loads: []float64{0.3, 0.6, 0.9},
		Pattern: func(load float64, n int) (traffic.Pattern, error) {
			return traffic.UniformAtLoad(load, 4, n)
		},
		Algorithms:    []Algorithm{FIFOMS, ISLIP, TATRA},
		Slots:         3_000,
		Seed:          77,
		Workers:       workers,
		CheckpointDir: dir,
	}
}

// TestSweepWorkerCountInvariance pins the sharded engine's core
// guarantee: the assembled table and the checkpoint artifacts are
// byte-identical no matter how many workers ran the sweep — arena
// recycling, stealing order and progress reporting leave no trace in
// the results.
func TestSweepWorkerCountInvariance(t *testing.T) {
	type outcome struct {
		workers int
		table   []byte
		files   map[string][]byte
	}
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var outcomes []outcome
	for _, workers := range counts {
		dir := t.TempDir()
		s := determinismSweep(workers, dir)
		s.Progress = func(Progress) {} // exercise the reporting path too
		tbl, err := s.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := json.Marshal(tbl)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = blob
		}
		if len(files) == 0 {
			t.Fatalf("workers=%d: no checkpoint artifacts written", workers)
		}
		outcomes = append(outcomes, outcome{workers, data, files})
	}

	ref := outcomes[0]
	for _, o := range outcomes[1:] {
		if string(o.table) != string(ref.table) {
			t.Errorf("table with %d workers differs from %d workers", o.workers, ref.workers)
		}
		if len(o.files) != len(ref.files) {
			t.Errorf("artifact count with %d workers: %d, want %d", o.workers, len(o.files), len(ref.files))
		}
		for name, blob := range ref.files {
			got, ok := o.files[name]
			if !ok {
				t.Errorf("workers=%d: artifact %s missing", o.workers, name)
				continue
			}
			if string(got) != string(blob) {
				t.Errorf("workers=%d: artifact %s differs", o.workers, name)
			}
		}
	}
}
