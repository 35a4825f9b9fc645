package experiment

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// The sharded run engine behind Sweep.Run. It fans a set of
// independent simulations — the sweep's (algorithm, load, replication)
// cells — out over a worker pool; the engine owns the scheduling so
// that:
//
//   - Work is balanced by claiming. Every worker takes the next shard
//     from one shared atomic cursor, so shards start in order (a grid
//     point's replications together) and no worker idles while shards
//     remain. Points differ wildly in cost (a saturated load simulates
//     far more buffered cells per slot than a light one), so static
//     partitioning would leave the pool idling behind one straggler;
//     a shard is milliseconds to seconds of work, so one cursor is
//     never contended.
//   - Completion streams. Every finished shard produces one Progress
//     event (serialized under a lock, so sinks may write to a
//     terminal) carrying completed/total counts, elapsed time and a
//     naive proportional ETA.
//
// Scheduling never influences results: every shard derives its seeds
// from its own coordinates, builds its own switch and writes to its own
// result slot, so the workers share nothing but the cursor.

// Progress describes the state of a sharded run after one more shard
// completed. Events arrive from worker goroutines but are serialized:
// a sink never runs concurrently with itself.
type Progress struct {
	Done    int           // shards completed so far, including this one
	Total   int           // shards overall
	Label   string        // the completed shard, e.g. "fifoms@0.9"
	Elapsed time.Duration // since the run started
	// ETA estimates the remaining wall time by extrapolating the mean
	// cost of the completed shards. Early events over-trust the first
	// few shards; it converges as the run progresses.
	ETA time.Duration
}

// runShards executes shards 0..total-1 on a pool of workers and blocks
// until all complete. run is called once per shard — concurrently, so
// it must write only shard-local state — and returns the shard's label
// for progress reporting.
func runShards(workers, total int, progress func(Progress), run func(shard int) string) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	if total <= 0 {
		return
	}

	start := time.Now()
	var next atomic.Int64
	var progressMu sync.Mutex // serializes sinks; guards done
	done := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				shard := int(next.Add(1)) - 1
				if shard >= total {
					return
				}
				label := run(shard)
				if progress == nil {
					continue
				}
				progressMu.Lock()
				done++
				elapsed := time.Since(start)
				var eta time.Duration
				if rem := total - done; rem > 0 {
					eta = elapsed / time.Duration(done) * time.Duration(rem)
				}
				progress(Progress{
					Done:    done,
					Total:   total,
					Label:   label,
					Elapsed: elapsed,
					ETA:     eta,
				})
				progressMu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// withPointLabels runs fn under pprof labels identifying the shard, so
// a CPU profile of a sweep attributes samples to (sweep, algorithm,
// load) — `go tool pprof -tagfocus` then isolates one point.
func withPointLabels(sweep, algo, load string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels(
		"sweep", sweep, "algorithm", algo, "load", load,
	), func(context.Context) { fn() })
}
