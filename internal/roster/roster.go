// Package roster is the one list of architectures the per-architecture
// test batteries range over, and the one table of the entries a battery
// leaves out, each with its reason. Only tests import it: a battery
// builds its switches through the entries' Algorithm.New and nothing
// else, so a new architecture joins every battery by joining the
// roster, and leaving one out is a row below that says why.
package roster

import (
	"fmt"

	"voqsim/internal/experiment"
)

// All returns the roster: experiment.AllAlgorithms() plus one member
// of each parameterised family, CIOQ at speedup 2 and FIFOMS capped at
// two rounds.
func All() []experiment.Algorithm {
	return append(experiment.AllAlgorithms(), experiment.CIOQ(2), experiment.FIFOMSRounds(2))
}

// Battery names one test battery that ranges over the roster.
type Battery string

// The batteries, with the tests that run them.
const (
	// DeliveryGolden: TestDeliveryStreamGolden (voqsim).
	DeliveryGolden Battery = "delivery-golden"
	// DeliveryGoldenWide: TestDeliveryStreamGolden's rows at N = 300
	// (voqsim), which only the core VOQ store's architectures run.
	DeliveryGoldenWide Battery = "delivery-golden-wide"
	// FastEquivalence: TestFastModeEquivalence (voqsim).
	FastEquivalence Battery = "fast-equivalence"
	// FabricGolden: TestFabricDeliveryGolden (voqsim).
	FabricGolden Battery = "fabric-golden"
	// FabricNode: TestInputBacklogMatchesQueueSizes and
	// TestFabricQueueSizesAfterStep (internal/fabric).
	FabricNode Battery = "fabric-node"
	// FabricDifferential: TestFabricDifferential (internal/fabric).
	FabricDifferential Battery = "fabric-differential"
	// FabricAllocs: TestFabricSlotAllocs (internal/fabric).
	FabricAllocs Battery = "fabric-allocs"
	// FabricResume: TestFabricResumeEqualsStraightRun (internal/switchsim).
	FabricResume Battery = "fabric-resume"
	// Resume: TestResumeEqualsStraightRun (internal/switchsim).
	Resume Battery = "resume"
	// Recycling: TestRecyclingInvisible, TestRecyclingAcrossResume and
	// TestLiveRecyclingInvisible (internal/switchsim).
	Recycling Battery = "recycling"
	// RestoreFuzz: the architectures FuzzRestore seeds and restores
	// into (internal/switchsim).
	RestoreFuzz Battery = "restore-fuzz"
	// SnapshotGolden: TestSnapshotGolden's pinned blobs (internal/switchsim).
	SnapshotGolden Battery = "snapshot-golden"
	// SlotAllocs: TestSlotZeroAllocs's rows at N = 16 and 64 (internal/switchsim).
	SlotAllocs Battery = "slot-allocs"
	// StableRun: TestAllArchitecturesRunStable (internal/switchsim).
	StableRun Battery = "stable-run"
	// BufferBytes: TestBufferBytesRecorded (internal/switchsim).
	BufferBytes Battery = "buffer-bytes"
	// SaturationFairness: TestSaturationFairnessAcrossInputs (voqsim).
	SaturationFairness Battery = "saturation-fairness"
	// CheckerDifferential: TestDifferentialGrid (internal/check).
	CheckerDifferential Battery = "checker-differential"
	// CheckerClean: TestCleanRunAllArchitectures (internal/check).
	CheckerClean Battery = "checker-clean"
	// CheckerDoneMutants: TestDoneMutantsCaught (internal/check).
	CheckerDoneMutants Battery = "checker-done-mutants"
	// DaemonCompletion: TestEveryArchitectureCompletesOnTheWire
	// (internal/daemon).
	DaemonCompletion Battery = "daemon-completion"
)

// Batteries lists every battery, so an exemption or a For call that
// names another is an error.
var Batteries = []Battery{
	DeliveryGolden, DeliveryGoldenWide, FastEquivalence, FabricGolden,
	FabricNode, FabricDifferential, FabricAllocs,
	FabricResume, Resume, Recycling, RestoreFuzz, SnapshotGolden, SlotAllocs,
	StableRun, BufferBytes, SaturationFairness,
	CheckerDifferential, CheckerClean, CheckerDoneMutants, DaemonCompletion,
}

// Exemption leaves one roster entry out of one battery.
type Exemption struct {
	Battery Battery
	Algo    string
	Reason  string
}

// sharedCoreCodec is why a core arbiter with no state of its own has
// no snapshot golden: its blob is a core switch's, which
// fifoms_4x4.snap already pins byte for byte.
const sharedCoreCodec = "a core switch whose arbiter saves nothing: its blob has fifoms_4x4.snap's codec"

// ownStore is why an architecture sits out the N = 300 delivery
// rows: they pin the core VOQ store's layout above N = 256, and it
// keeps its cells elsewhere, pinned at N <= 130 like every other
// architecture.
const ownStore = "keeps its cells outside the core VOQ store, whose layout above N = 256 is what the N = 300 rows pin"

// Exemptions is every (battery, architecture) pair a battery does not
// run. TestExemptions holds each row to a known battery, a roster
// entry and a reason.
var Exemptions = []Exemption{
	{FastEquivalence, "fifoms-nosplit", "all-or-nothing service is near saturation at the grid's load 0.6: " +
		"exact runs on different seeds already differ 2.6x in mean delay (N = 64: 16.9 to 44.3 slots), " +
		"so CI overlap at these run lengths would judge transients, not the fast samplers"},
	{StableRun, "fifoms-nosplit", "all-or-nothing service saturates below the test's load 0.6 (N = 8, mean fanout 2)"},
	{SaturationFairness, "fifoms-nosplit", "serves no copy under the test's broadcast backlog, and the oracle in the same mode " +
		"serves none either: every head carries the same stamp, each output breaks the tie on its own, " +
		"so every input holds a partial grant and withdraws it whole"},
	{DeliveryGoldenWide, "tatra", ownStore},
	{DeliveryGoldenWide, "oqfifo", ownStore},
	{DeliveryGoldenWide, "wba", ownStore},
	{DeliveryGoldenWide, "eslip", ownStore},
	{SnapshotGolden, "pim", sharedCoreCodec},
	{SnapshotGolden, "2drr", sharedCoreCodec},
	{SnapshotGolden, "lqfms", sharedCoreCodec},
	{SnapshotGolden, "fifoms-nosplit", sharedCoreCodec},
	{SnapshotGolden, "fifoms-r2", sharedCoreCodec},
}

// For returns the roster entries battery runs: every entry no
// exemption leaves out of it, in roster order. It panics on a battery
// not in Batteries.
func For(battery Battery) []experiment.Algorithm {
	known := false
	for _, b := range Batteries {
		known = known || b == battery
	}
	if !known {
		panic(fmt.Sprintf("roster: unknown battery %q", battery))
	}
	var run []experiment.Algorithm
	for _, a := range All() {
		if !exempt(battery, a.Name) {
			run = append(run, a)
		}
	}
	return run
}

// Names returns the names of For(battery).
func Names(battery Battery) []string {
	var names []string
	for _, a := range For(battery) {
		names = append(names, a.Name)
	}
	return names
}

func exempt(battery Battery, algo string) bool {
	for _, e := range Exemptions {
		if e.Battery == battery && e.Algo == algo {
			return true
		}
	}
	return false
}
