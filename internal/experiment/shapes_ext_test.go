package experiment

import "testing"

func TestSpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shape checks take seconds")
	}
	runShape(t, "speedup")
}

func TestIndustryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shape checks take seconds")
	}
	runShape(t, "industry")
}

func TestMemoryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shape checks take seconds")
	}
	runShape(t, "memory")
}

func TestMixedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shape checks take seconds")
	}
	runShape(t, "mixed")
}

func TestAblationCriterionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shape checks take seconds")
	}
	runShape(t, "ablation-criterion")
}

func TestHotspotShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shape checks take seconds")
	}
	runShape(t, "hotspot")
}
