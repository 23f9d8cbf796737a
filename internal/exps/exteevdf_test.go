package exps

import (
	"testing"

	"repro/internal/timebase"
)

func TestExtEEVDFScalingLaw(t *testing.T) {
	us := func(x int64) timebase.Duration { return timebase.Duration(x) * timebase.Microsecond }
	r := RunExtEEVDF(&Env{}, ExtEEVDFConfig{
		Measures: []timebase.Duration{us(8), us(16), us(32)},
		Trials:   6,
		Seed:     31,
	})
	t.Log("\n" + r.String())
	// Medians decline with ΔI.
	for i := 1; i < len(r.Medians); i++ {
		if r.Medians[i] >= r.Medians[i-1] {
			t.Fatalf("medians not declining: %v", r.Medians)
		}
	}
	// Implied budget roughly constant (the scaling law).
	lo, hi := r.BudgetSpread()
	if float64(hi)/float64(lo) > 1.5 {
		t.Fatalf("implied budget spread too wide: %v-%v", lo, hi)
	}
}
