package exps

import (
	"testing"
)

// TestHistogramDeterminism: the whole fig4.3 pipeline — kernel jitter,
// scheduler decisions, microarchitecture — must be bit-identical for equal
// seeds and diverge for different ones.
func TestHistogramDeterminism(t *testing.T) {
	run := func(seed uint64) string {
		return RunFig43(&Env{}, Fig43Config{Variant: Fig43a, Samples: 600, Seed: seed}).String()
	}
	a1, a2, b := run(9), run(9), run(10)
	if a1 != a2 {
		t.Fatal("same seed produced different histograms")
	}
	if a1 == b {
		t.Fatal("different seeds produced identical histograms")
	}
}

// TestAttackDeterminism: the AES attack's recovered accuracy is seed-stable.
func TestAttackDeterminism(t *testing.T) {
	run := func() float64 {
		return RunFig51(&Env{}, Fig51Config{Keys: 2, TracesPerKey: 3, Sched: CFS, Seed: 55}).NibbleAccuracy
	}
	if run() != run() {
		t.Fatal("AES attack not deterministic")
	}
}
