package exps

import "testing"

func TestAblationNoWakeupPreemption(t *testing.T) {
	r := RunAblationNoWakeupPreemption(&Env{}, 41)
	t.Log("\n" + r.String())
	if r.BaselineBurst < 300 {
		t.Fatalf("baseline burst = %d", r.BaselineBurst)
	}
	if r.VariantBurst != 0 {
		t.Fatalf("mitigated burst = %d, want 0", r.VariantBurst)
	}
	// Resolution collapses by orders of magnitude.
	if r.VariantStep < 1000*r.BaselineStep {
		t.Fatalf("resolution did not collapse: %d → %d", r.BaselineStep, r.VariantStep)
	}
}

func TestAblationGentleFairSleepers(t *testing.T) {
	r := RunAblationGentleFairSleepers(&Env{}, 43)
	t.Log("\n" + r.String())
	// Budget 8ms → 20ms: ≈2.5× more preemptions.
	ratio := float64(r.VariantBurst) / float64(r.BaselineBurst)
	if ratio < 2.0 || ratio > 3.0 {
		t.Fatalf("gentle-off burst ratio = %.2f, want ≈2.5", ratio)
	}
	// Temporal resolution unaffected.
	if r.VariantStep > 3*r.BaselineStep {
		t.Fatalf("resolution changed: %d → %d", r.BaselineStep, r.VariantStep)
	}
}

func TestAblationDefaultTimerSlack(t *testing.T) {
	r := RunAblationDefaultTimerSlack(&Env{}, 47)
	t.Log("\n" + r.String())
	// With 50µs slack the victim runs far longer per step.
	if r.VariantStep < 20*r.BaselineStep {
		t.Fatalf("slack did not degrade resolution: %d → %d", r.BaselineStep, r.VariantStep)
	}
}

func TestAblationRoundRobin(t *testing.T) {
	r := RunAblationRoundRobin(&Env{}, 53, 1500)
	t.Log("\n" + r.String())
	// Round-robin avoids the per-budget re-hibernation, so it is
	// substantially faster to the same preemption count.
	if r.VariantBurst >= r.BaselineBurst {
		t.Fatalf("round-robin (%dms) not faster than single thread (%dms)",
			r.VariantBurst, r.BaselineBurst)
	}
}
