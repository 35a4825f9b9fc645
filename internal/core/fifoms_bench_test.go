package core_test

// Microbenchmark matrix for the FIFOMS match kernel: N ∈ {8, 16, 32,
// 64, 128, 256, 1024} × {uniform, bursty, hotspot} HOL patterns, plus
// the reference kernel (internal/check/oracle) on the identical states
// for the speedup comparison. The two wide sizes exercise the
// multi-word row scans (4, 16 words per row) whose chunked early-exit
// paths never run at N <= 128.
// Match does not mutate queue state, so each iteration reruns the
// kernel on a constant backlogged switch — this isolates the
// arbitration cost that dominates every sweep behind Figures 4–7.
// Headline numbers are recorded in BENCH_fifoms.json at the repo root.
//
// The constant state is also this matrix's blind spot: rerun, it lets
// the branch predictor learn every compare outcome, so a change that
// removes mispredicted branches cannot show here (the branch-free HOL
// argmin and grant fold of DESIGN.md §7 read slower at N = 64 and
// faster at N = 16, and gain 1.08–1.11× end to end). The witnesses on
// live, evolving queue state are BenchmarkSlot/n=16 and /n=64 in
// internal/switchsim; BenchmarkArgminHOL (argmin_test.go) times the
// argmin alone over 4096 pre-drawn rows.

import (
	"fmt"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/check/oracle"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

var benchSizes = []int{8, 16, 32, 64, 128, 256, 1024}

var benchPatterns = []string{"uniform", "bursty", "hotspot"}

// loadedMatchSwitch builds a deterministic backlogged switch whose HOL
// state follows the named pattern.
func loadedMatchSwitch(n int, pattern string, arb core.Arbiter) *core.Switch {
	s := core.NewSwitch(n, arb, xrand.New(7))
	r := xrand.New(uint64(100 + n))
	id := cell.PacketID(0)
	arrive := func(in int, slot int64, d *destset.Set) {
		if d.Empty() {
			d.Add(int(id) % n)
		}
		id++
		s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d})
	}
	switch pattern {
	case "uniform":
		// Every VOQ backlogged with moderate-fanout packets spread
		// evenly over outputs.
		for slot := int64(0); slot < 4; slot++ {
			for in := 0; in < n; in++ {
				d := destset.New(n)
				for out := 0; out < n; out++ {
					if (in+out+int(slot))%3 == 0 {
						d.Add(out)
					}
				}
				arrive(in, slot, d)
			}
		}
	case "bursty":
		// Consecutive same-input arrivals with large correlated
		// fanouts: many equal-stamp siblings per input, deep VOQs.
		for slot := int64(0); slot < 8; slot++ {
			for in := 0; in < n; in++ {
				d := destset.New(n)
				start := (in * 7) % n
				for k := 0; k < n/2+1; k++ {
					d.Add((start + k) % n)
				}
				arrive(in, slot, d)
			}
		}
	case "hotspot":
		// All inputs pile onto a few hot outputs with occasional cold
		// fanout: heavy contention, many request/grant rounds.
		hot := n / 8
		if hot < 1 {
			hot = 1
		}
		for slot := int64(0); slot < 6; slot++ {
			for in := 0; in < n; in++ {
				d := destset.New(n)
				d.Add(int(r.Intn(hot)))
				if r.Bool(0.3) {
					d.Add(hot + int(r.Intn(n-hot)))
				}
				arrive(in, slot, d)
			}
		}
	default:
		panic("unknown bench pattern " + pattern)
	}
	return s
}

func benchMatch(b *testing.B, n int, pattern string, arb core.Arbiter) {
	b.Helper()
	s := loadedMatchSwitch(n, pattern, arb)
	r := xrand.New(11)
	m := core.NewMatching(n)
	// Warm call: the kernel sizes its scratch state lazily on first
	// use, and that one-time allocation must not be billed to the
	// steady state (it showed up as a stray byte/op at low -benchtime).
	m.Clear()
	arb.Match(s, 100, r, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Clear()
		arb.Match(s, 100, r, m)
	}
}

// BenchmarkFIFOMSMatch is the word-parallel kernel over the full
// size × pattern matrix.
func BenchmarkFIFOMSMatch(b *testing.B) {
	for _, n := range benchSizes {
		for _, pat := range benchPatterns {
			b.Run(fmt.Sprintf("n=%d/%s", n, pat), func(b *testing.B) {
				benchMatch(b, n, pat, &core.FIFOMS{})
			})
		}
	}
}

// BenchmarkFIFOMSMatchReference is the O(N³) reference kernel on the
// identical states — the denominator of BENCH_fifoms.json's "new vs
// reference" column.
func BenchmarkFIFOMSMatchReference(b *testing.B) {
	for _, n := range benchSizes {
		for _, pat := range benchPatterns {
			b.Run(fmt.Sprintf("n=%d/%s", n, pat), func(b *testing.B) {
				benchMatch(b, n, pat, oracle.New())
			})
		}
	}
}

// BenchmarkFIFOMSMatchNoSplit covers the all-or-nothing ablation path
// of the new kernel.
func BenchmarkFIFOMSMatchNoSplit(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d/uniform", n), func(b *testing.B) {
			benchMatch(b, n, "uniform", &core.FIFOMS{NoFanoutSplitting: true})
		})
	}
}
