package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
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
	doneFile, _ := s.pointPaths(0, 0, 0)
	data, err := os.ReadFile(doneFile)
	if err != nil {
		t.Fatal(err)
	}
	var pt Point
	if err := json.Unmarshal(data, &pt); err != nil {
		t.Fatal(err)
	}
	pt.Results.Delivered = 12345
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
	if got.Points[0][0].Results.Delivered != 12345 {
		t.Fatal("finished point was re-simulated instead of loaded from disk")
	}
	if err := os.WriteFile(doneFile, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Interrupted-point scenario: replace one finished point with a
	// genuine mid-run snapshot, as a killed sweep would leave behind.
	// The re-run must resume it and still reproduce the table.
	s = resumeSweep(dir)
	doneFile, snapFile := s.pointPaths(1, 1, 0)
	pat, err := s.Pattern(s.Loads[1], s.N)
	if err != nil {
		t.Fatal(err)
	}
	r, _, _ := s.pointRunner(1, 1, 0, pat)
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
	doneFile, snapFile = s.pointPaths(0, 1, 0)
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

// TestWriteFileAtomicLeavesNoTemp pins that a write leaves nothing but
// its target behind: on success the file, mode 0644, holding the data;
// on a failed rename (the target is a directory) nothing new at all.
func TestWriteFileAtomicLeavesNoTemp(t *testing.T) {
	names := func(dir string) []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}
	t.Run("success", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "x.snap")
		for _, data := range []string{"first", "second"} {
			if err := WriteFileAtomic(path, []byte(data)); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != data {
				t.Fatalf("read back %q, %v; want %q", got, err, data)
			}
		}
		if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
			t.Errorf("mode %v, %v; want 0644", fi.Mode().Perm(), err)
		}
		if got := names(dir); len(got) != 1 {
			t.Errorf("directory holds %q, want only x.snap", got)
		}
	})
	t.Run("rename fails", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "x.snap")
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(path, []byte("data")); err == nil {
			t.Fatal("renaming over a directory succeeded")
		}
		if got := names(dir); len(got) != 1 {
			t.Errorf("directory holds %q, want only x.snap", got)
		}
	})
}
