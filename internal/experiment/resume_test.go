package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"voqsim/internal/traffic"
)

// resumeSweep is the fixed sweep the resume tests run in several
// interruption scenarios; every scenario must assemble the identical
// table.
func resumeSweep(dir string) *Sweep {
	return &Sweep{
		Name: "rt", Title: "resume test", N: 8,
		Loads:      []float64{0.2, 0.5},
		Algorithms: []Algorithm{FIFOMS, WBA},
		Slots:      3000, Seed: 11, Check: true,
		CheckpointDir: dir,
		Pattern: func(load float64, n int) (traffic.Pattern, error) {
			return traffic.BernoulliAtLoad(load, 0.25, n)
		},
	}
}

func tablesEqual(t *testing.T, ctx string, got, want *Table) {
	t.Helper()
	for ai := range want.Points {
		for li := range want.Points[ai] {
			if got.Points[ai][li] != want.Points[ai][li] {
				t.Fatalf("%s: point [%d][%d] differs:\n got %+v\nwant %+v",
					ctx, ai, li, got.Points[ai][li], want.Points[ai][li])
			}
		}
	}
}

func TestSweepCheckpointDir(t *testing.T) {
	ref := resumeSweep("")
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	// First resumable run: same table, and every point leaves a
	// finished-result JSON (with its mid-run snapshot cleaned up).
	dir := t.TempDir()
	got, err := resumeSweep(dir).Run()
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "checkpointed sweep", got, want)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var done, snaps int
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".json":
			done++
		case ".snap":
			snaps++
		}
	}
	if done != 4 || snaps != 0 {
		t.Fatalf("checkpoint dir holds %d finished points and %d snapshots, want 4 and 0", done, snaps)
	}

	// Second run over the same directory: all points load from disk.
	// Tampering with one saved point proves they are not re-simulated.
	s := resumeSweep(dir)
	doneFile, _ := s.pointPaths(0, 0)
	data, err := os.ReadFile(doneFile)
	if err != nil {
		t.Fatal(err)
	}
	var pt Point
	if err := json.Unmarshal(data, &pt); err != nil {
		t.Fatal(err)
	}
	pt.Results.Seed = 12345
	tampered, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(doneFile, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Points[0][0].Results.Seed != 12345 {
		t.Fatal("finished point was re-simulated instead of loaded from disk")
	}
	if err := os.WriteFile(doneFile, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Interrupted-point scenario: replace one finished point with a
	// genuine mid-run snapshot, as a killed sweep would leave behind.
	// The re-run must resume it and still reproduce the table.
	s = resumeSweep(dir)
	doneFile, snapFile := s.pointPaths(1, 1)
	pat, err := s.Pattern(s.Loads[1], s.N)
	if err != nil {
		t.Fatal(err)
	}
	r, _, _ := s.pointRunner(1, 1, 0, pat, nil)
	var blob []byte
	if _, err := r.RunWithCheckpoints(s.Algorithms[1].Name, 1000, func(next int64, b []byte) error {
		if blob == nil {
			blob = append([]byte(nil), b...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(doneFile); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapFile, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = s.Run()
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "mid-run resume", got, want)

	// Corrupt snapshot scenario: the point must quietly re-run from
	// slot 0 and still produce the exact table.
	s = resumeSweep(dir)
	doneFile, snapFile = s.pointPaths(0, 1)
	if err := os.Remove(doneFile); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(snapFile, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = s.Run()
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "corrupt snapshot", got, want)
}

func TestReplicateConfigDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   ReplicateConfig
		want ReplicateConfig
	}{
		{"zeros take defaults", ReplicateConfig{},
			ReplicateConfig{Replications: 10, Slots: 50_000, Seed: 2004}},
		{"explicit values kept", ReplicateConfig{Replications: 3, Slots: 1234, Seed: 9, Workers: 2},
			ReplicateConfig{Replications: 3, Slots: 1234, Seed: 9, Workers: 2}},
		{"non-positive replications default", ReplicateConfig{Replications: -4},
			ReplicateConfig{Replications: 10, Slots: 50_000, Seed: 2004}},
		{"negative slots preserved for validation", ReplicateConfig{Slots: -1},
			ReplicateConfig{Replications: 10, Slots: -1, Seed: 2004}},
		{"negative workers preserved (GOMAXPROCS at run time)", ReplicateConfig{Workers: -3},
			ReplicateConfig{Replications: 10, Slots: 50_000, Seed: 2004, Workers: -3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.withDefaults()
			// ReplicateConfig holds func fields, so compare the
			// defaulted scalars individually.
			if got.Replications != tc.want.Replications || got.Slots != tc.want.Slots ||
				got.Seed != tc.want.Seed || got.Workers != tc.want.Workers {
				t.Fatalf("withDefaults(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

func TestReplicateRejectsNegativeSlots(t *testing.T) {
	_, err := Replicate(ReplicateConfig{
		Algorithm: FIFOMS, N: 4, Slots: -5,
		Pattern: func(load float64, n int) (traffic.Pattern, error) {
			return traffic.BernoulliAtLoad(load, 0.25, n)
		},
		Load: 0.3,
	})
	if err == nil || !strings.Contains(err.Error(), "negative slot budget") {
		t.Fatalf("negative Slots accepted: %v", err)
	}
}
