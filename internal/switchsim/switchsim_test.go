package switchsim

import (
	"strings"
	"testing"

	"voqsim/internal/core"
	"voqsim/internal/oq"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

func TestLowLoadDelayNearOne(t *testing.T) {
	// At 10% load on FIFOMS nearly every packet goes out in its arrival
	// slot: mean delays barely above 1.
	pat := traffic.Bernoulli{P: 0.1, B: 0.25}
	sw := core.NewSwitch(8, &core.FIFOMS{}, xrand.New(1))
	res := New(sw, pat, Config{Slots: 20000, Seed: 1}, xrand.New(1)).Run("fifoms")
	if res.Unstable {
		t.Fatal("low load went unstable")
	}
	if res.InputDelay.Mean > 1.6 || res.OutputDelay.Mean > 1.5 {
		t.Fatalf("low-load delays too high: in=%v out=%v", res.InputDelay.Mean, res.OutputDelay.Mean)
	}
	if res.InputDelay.Min < 1 {
		t.Fatalf("delay below 1: %v", res.InputDelay.Min)
	}
	if res.Completed == 0 || res.OfferedPackets == 0 {
		t.Fatal("nothing measured")
	}
}

func TestConservationAccounting(t *testing.T) {
	pat := traffic.Uniform{P: 0.3, MaxFanout: 4}
	sw := core.NewSwitch(8, &core.FIFOMS{}, xrand.New(2))
	r := New(sw, pat, Config{Slots: 10000, Seed: 2}, xrand.New(2))
	res := r.Run("fifoms")
	// Delivered copies can exceed offered post-warmup copies by at most
	// the pre-warmup backlog, and completed packets never exceed
	// offered ones.
	if res.Completed > res.OfferedPackets {
		t.Fatalf("completed %d > offered %d", res.Completed, res.OfferedPackets)
	}
	// Everything still in flight is bounded by the backlog.
	if got := r.tracker.InFlight(); int64(got) > sw.BufferedCells()+1 {
		t.Fatalf("in-flight %d exceeds buffered %d", got, sw.BufferedCells())
	}
}

func TestOverloadFlagsUnstable(t *testing.T) {
	// Offered load 2.0 per output cannot be sustained by any input-
	// queued switch; the run must stop early and be flagged.
	pat := traffic.Bernoulli{P: 1.0, B: 0.25} // load = 2.0 on N=8
	sw := core.NewSwitch(8, &core.FIFOMS{}, xrand.New(3))
	res := New(sw, pat, Config{Slots: 100000, UnstableCellLimit: 2000, Seed: 3}, xrand.New(3)).Run("fifoms")
	if !res.Unstable {
		t.Fatal("overload not flagged unstable")
	}
	if res.Slots >= 100000 {
		t.Fatal("unstable run did not stop early")
	}
	if res.UnstableAt <= 0 {
		t.Fatalf("UnstableAt = %d", res.UnstableAt)
	}
}

func TestRoundsRecordedOnlyForIterativeSwitches(t *testing.T) {
	pat := traffic.Bernoulli{P: 0.3, B: 0.25}
	fifoms := New(core.NewSwitch(8, &core.FIFOMS{}, xrand.New(5)), pat, Config{Slots: 5000, Seed: 5}, xrand.New(5)).Run("fifoms")
	if fifoms.Rounds.Count == 0 || fifoms.Rounds.Mean < 1 {
		t.Fatalf("FIFOMS rounds not recorded: %+v", fifoms.Rounds)
	}
	oqRes := New(oq.New(8), pat, Config{Slots: 5000, Seed: 5}, xrand.New(5)).Run("oqfifo")
	if oqRes.Rounds.Count != 0 {
		t.Fatalf("OQ switch reported rounds: %+v", oqRes.Rounds)
	}
}

func TestDeterminism(t *testing.T) {
	pat := traffic.Burst{EOff: 30, EOn: 16, B: 0.3}
	run := func() Results {
		sw := core.NewSwitch(8, &core.FIFOMS{}, xrand.New(6))
		return New(sw, pat, Config{Slots: 10000, Seed: 6}, xrand.New(6)).Run("fifoms")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestWarmupExcluded(t *testing.T) {
	// With warmup = 0.5 over 1000 slots, only arrivals from slot 500 on
	// are measured.
	pat := traffic.Uniform{P: 0.2, MaxFanout: 1}
	sw := core.NewSwitch(4, &core.FIFOMS{}, xrand.New(7))
	r := New(sw, pat, Config{Slots: 1000, Seed: 7}, xrand.New(7))
	if r.WarmupSlots() != 500 {
		t.Fatalf("WarmupSlots = %d", r.WarmupSlots())
	}
	res := r.Run("fifoms")
	// Roughly 0.2*4*500 = 400 post-warmup arrivals.
	if res.OfferedPackets < 300 || res.OfferedPackets > 500 {
		t.Fatalf("OfferedPackets = %d, want ~400", res.OfferedPackets)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults(16)
	if c.Slots != 200000 || c.WarmupFrac != 0.5 || c.UnstableCellLimit != 16000 {
		t.Fatalf("defaults = %+v", c)
	}
	c = Config{Slots: 10, WarmupFrac: -1, UnstableCellLimit: 5}.withDefaults(4)
	if c.WarmupFrac != 0 || c.UnstableCellLimit != 5 || c.Slots != 10 {
		t.Fatalf("defaults = %+v", c)
	}
	c = Config{WarmupFrac: 0.25}.withDefaults(4)
	if c.WarmupFrac != 0.25 {
		t.Fatalf("explicit warmup overridden: %+v", c)
	}
}

func TestDescribe(t *testing.T) {
	res := Results{Algorithm: "fifoms", Pattern: "x", Load: 0.5}
	if !strings.Contains(res.Describe(), "fifoms") || !strings.Contains(res.Describe(), "stable") {
		t.Fatalf("Describe = %q", res.Describe())
	}
	res.Unstable = true
	res.UnstableAt = 7
	if !strings.Contains(res.Describe(), "UNSTABLE@7") {
		t.Fatalf("Describe = %q", res.Describe())
	}
}
