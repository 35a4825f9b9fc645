package report

import (
	"strings"
	"testing"
)

func TestGenerateSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure sweep")
	}
	var b strings.Builder
	err := Generate(Options{Slots: 3000, Seed: 9, SkipExtensions: true}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# EXPERIMENTS",
		"## fig4", "## fig5", "## fig6", "## fig7", "## fig8",
		"Paper claims:",
		"Measured",
		"Verdict",
		"fifoms",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// With extensions skipped, the extension sections must be absent.
	for _, no := range []string{"## saturation", "## scaling", "ablation"} {
		if strings.Contains(out, no) {
			t.Fatalf("report unexpectedly contains %q", no)
		}
	}
}
