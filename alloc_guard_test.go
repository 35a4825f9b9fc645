package voqsim

import "testing"

// TestPreprocessZeroAllocs guards the arrival fast path: with the
// observability layer detached (the default), preprocessing an
// arriving multicast packet into its data and address cells must not
// allocate. The pooled free lists and the nil-observer check are what
// keep this at zero; see also the matching kernel guard in
// internal/core. It runs BenchmarkPreprocess's loop, drains included,
// under testing.AllocsPerRun: one allocation per arrival reads 1.
func TestPreprocessZeroAllocs(t *testing.T) {
	l := newPreprocessLoop()
	avg := testing.AllocsPerRun(4096, func() {
		if l.arrive() {
			l.drain()
		}
	})
	if avg != 0 {
		t.Fatalf("Arrive with observability disabled: %.0f allocs/op, want 0", avg)
	}
}
