package main

import "time"

// The host this benchmark runs on is a small virtual machine whose
// neighbours contend for the shared cache: the same repetition takes
// anything from 1x to 1.6x its best time, in regimes that last from a
// fraction of a second to tens of seconds (README.md, "Calibrated host
// seconds", has the measurements). A median over eight seconds cannot
// average that out, so every repetition in which the program under
// test computes for the whole of the timed interval is bracketed by a
// probe — a fixed random walk over a 2 MiB table, code that belongs to
// the benchmark and that no change to the simulator can touch — and
// the repetition's wall time is divided by how much slower than
// nominal the probe ran. The calibrated second is then one wall second
// of a host on which the probe takes probeNominalMs. Durations a clock
// sets (the daemon's slot clock, a fixed-length burst, the open loop)
// are never calibrated, and the raw wall-clock median is printed
// beside every calibrated one.

const (
	probeWords = 1 << 18 // 2 MiB of uint64: past the private caches, inside the shared one
	probeSteps = 1_000_000
	// probeNominalMs is the probe's median on the host class the
	// baseline was taken on (Xeon @ 2.10GHz, 2 vCPUs) over a
	// seven-minute sample, so that a calibrated number reads like a
	// typical wall-clock one there.
	probeNominalMs = 4.8
)

type calibrator struct {
	table []uint64
	state uint64
	// last is the most recent probe time in milliseconds.
	last float64
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make([]uint64, probeWords), state: 88172645463325252}
	c.probe() // touch every page before the first reading counts
	c.probe()
	return c
}

// probe runs the reference walk once and returns its time in ms.
func (c *calibrator) probe() float64 {
	x := c.state
	mask := uint64(len(c.table) - 1)
	t0 := time.Now()
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.table[x&mask] += x
	}
	c.last = float64(time.Since(t0).Nanoseconds()) / 1e6
	c.state = x
	return c.last
}

// timed runs f and returns its wall time with the factor by which the
// host ran slower than nominal around it: the mean of the probe taken
// before (the previous call's closing probe) and the one taken after.
// A calibrated duration is wall/factor; a calibrated rate is
// rate*factor.
func (c *calibrator) timed(f func()) (wall time.Duration, factor float64) {
	before := c.last
	t0 := time.Now()
	f()
	wall = time.Since(t0)
	return wall, (before + c.probe()) / 2 / probeNominalMs
}
