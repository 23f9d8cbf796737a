package exps

import (
	"strings"
	"testing"

	"repro/internal/timebase"
)

func TestTable21(t *testing.T) {
	tab := RunTable21()
	if tab.Factor != 4 {
		t.Fatalf("scaling factor = %d, want 4", tab.Factor)
	}
	if tab.Params.Latency != 24*timebase.Millisecond {
		t.Fatalf("S_bnd = %v, want 24ms", tab.Params.Latency)
	}
	if tab.Params.MinGranularity != 3*timebase.Millisecond {
		t.Fatalf("S_min = %v, want 3ms", tab.Params.MinGranularity)
	}
	if tab.Params.SleeperSlack() != 12*timebase.Millisecond {
		t.Fatalf("S_slack = %v, want 12ms", tab.Params.SleeperSlack())
	}
	if tab.Params.WakeupGranularity != 4*timebase.Millisecond {
		t.Fatalf("S_preempt = %v, want 4ms", tab.Params.WakeupGranularity)
	}
	if !strings.Contains(tab.String(), "S_bnd") {
		t.Fatal("table rendering broken")
	}
}

func TestFig41(t *testing.T) {
	r := RunFig41(&Env{}, 2)
	if r.SlackAtWake < 11*timebase.Millisecond || r.SlackAtWake > 12500*timebase.Microsecond {
		t.Fatalf("Δ at wake = %v, want ≈S_slack 12ms", r.SlackAtWake)
	}
	if r.DeltaAtFailure > 4*timebase.Millisecond || r.DeltaAtFailure < 3500*timebase.Microsecond {
		t.Fatalf("Δ at failure = %v, want just under S_preempt 4ms", r.DeltaAtFailure)
	}
	if r.Preemptions < 100 {
		t.Fatalf("preemptions = %d", r.Preemptions)
	}
}

func TestFig43aShape(t *testing.T) {
	r := RunFig43(&Env{}, Fig43Config{Variant: Fig43a, Samples: 2000, Seed: 3})
	t.Log("\n" + r.String())
	// Small ε: sizable zero steps and small counts; larger ε: more
	// instructions per preemption.
	if z := r.ZeroFrac(0); z < 0.05 {
		t.Errorf("smallest ε zero-step fraction = %.2f, want sizable", z)
	}
	if r.Hists[0].Mean() >= r.Hists[len(r.Hists)-1].Mean() {
		t.Errorf("means not increasing with ε: %f vs %f",
			r.Hists[0].Mean(), r.Hists[len(r.Hists)-1].Mean())
	}
	if s := r.SmallFrac(0); s < 0.6 {
		t.Errorf("small-step fraction at smallest ε = %.2f", s)
	}
}

func TestFig43bSingleSteps(t *testing.T) {
	r := RunFig43(&Env{}, Fig43Config{Variant: Fig43b, Samples: 2000, Seed: 4})
	t.Log("\n" + r.String())
	// With iTLB eviction, a mid ε should give a majority of single steps.
	best := 0.0
	for i := range r.Epsilons {
		if f := r.SingleFrac(i); f > best {
			best = f
		}
	}
	if best < 0.5 {
		t.Errorf("best single-step fraction = %.2f, want majority", best)
	}
}

func TestFig43cTimer(t *testing.T) {
	r := RunFig43(&Env{}, Fig43Config{Variant: Fig43c, Samples: 1500, Seed: 5})
	t.Log("\n" + r.String())
	if s := r.SmallFrac(0); s < 0.5 {
		t.Errorf("timer method small-step fraction = %.2f", s)
	}
}

func TestFig47EEVDF(t *testing.T) {
	r := RunFig43(&Env{}, Fig43Config{Variant: Fig47, Samples: 1500, Seed: 6})
	t.Log("\n" + r.String())
	best := 0.0
	for i := range r.Epsilons {
		if f := r.SingleFrac(i); f > best {
			best = f
		}
	}
	if best < 0.5 {
		t.Errorf("EEVDF best single-step fraction = %.2f, want majority", best)
	}
}

func TestFig44Fit(t *testing.T) {
	us := func(x int64) timebase.Duration { return timebase.Duration(x) * timebase.Microsecond }
	r := RunFig44(&Env{}, Fig44Config{
		Measures: []timebase.Duration{us(10), us(25), us(60)},
		Trials:   6,
		Seed:     7,
	})
	t.Log("\n" + r.String())
	if e := r.FitError(); e > 0.25 {
		t.Errorf("fit error vs expected curve = %.2f, want close match", e)
	}
}

func TestFig45NiceSweep(t *testing.T) {
	r := RunFig45(&Env{}, Fig45Config{Nices: []int{-20, -10, 0}, Trials: 4, Seed: 8})
	t.Log("\n" + r.String())
	if !r.HundredsEvenAtHighestPriority() {
		t.Errorf("nice -20 median = %d, want hundreds", r.Medians[0])
	}
	// Higher victim priority → fewer preemptions.
	if r.Medians[0] >= r.Medians[len(r.Medians)-1] {
		t.Errorf("medians not increasing with nice: %v", r.Medians)
	}
}

func TestSec45Median(t *testing.T) {
	r := RunSec45(&Env{}, Sec45Config{Trials: 40, Seed: 9})
	t.Log("\n" + r.String())
	if r.Median() < 150 || r.Median() > 300 {
		t.Errorf("EEVDF median = %d, paper reports 219", r.Median())
	}
}

func TestFig46Noise(t *testing.T) {
	r := RunFig46(&Env{}, Fig46Config{Seed: 10})
	t.Log("\n" + r.String())
	if r.ConvergeAt == 0 {
		t.Fatal("victim and noise vruntimes never converged")
	}
	if !r.SawBothAfterConvergence() {
		t.Error("post-convergence schedule lacks V/N mix")
	}
	if !r.PatternOK {
		t.Errorf("pattern not ((V|N)A)+: %q", truncate(r.PatternAfter, 40))
	}
	if r.OracleAccuracy < 0.9 {
		t.Errorf("presence-oracle accuracy = %.2f", r.OracleAccuracy)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

func TestFig11Comparison(t *testing.T) {
	r := RunFig11(&Env{}, Fig11Config{PriorThreads: 10, Target: 100, Seed: 11})
	t.Log("\n" + r.String())
	if r.MaxPriorBurst() > int64(r.Config.PriorThreads) {
		t.Errorf("prior bursts exceed thread count: %d", r.MaxPriorBurst())
	}
	if r.CPBurst < 100 {
		t.Errorf("CP burst = %d, want the whole target in one burst", r.CPBurst)
	}
	if r.CPDuration >= r.PriorDuration {
		t.Errorf("CP (%v) not faster than prior (%v)", r.CPDuration, r.PriorDuration)
	}
}

func TestColo(t *testing.T) {
	r := RunColo(&Env{}, ColoConfig{Trials: 3, Seed: 12})
	t.Log("\n" + r.String())
	if r.Landed != r.Trials {
		t.Errorf("victim landed on target in %d/%d trials", r.Landed, r.Trials)
	}
	if r.Stayed != r.Trials {
		t.Errorf("victim stayed in %d/%d trials", r.Stayed, r.Trials)
	}
}

func TestFig51AES(t *testing.T) {
	r := RunFig51(&Env{}, Fig51Config{Keys: 4, TracesPerKey: 5, Sched: CFS, Seed: 13})
	t.Log("\n" + r.String())
	if r.NibbleAccuracy < 0.9 {
		t.Errorf("AES nibble accuracy = %.3f, paper reports 0.989", r.NibbleAccuracy)
	}
}

func TestFig51AESEEVDF(t *testing.T) {
	r := RunFig51(&Env{}, Fig51Config{Keys: 3, TracesPerKey: 5, Sched: EEVDF, Seed: 14})
	t.Log("\n" + r.String())
	if r.NibbleAccuracy < 0.85 {
		t.Errorf("AES/EEVDF nibble accuracy = %.3f, paper reports 0.981", r.NibbleAccuracy)
	}
}

func TestFig52SGX(t *testing.T) {
	r := RunFig52(&Env{}, Fig52Config{Keys: 2, Seed: 15})
	t.Log("\n" + r.String())
	if r.SingleCoverage < 0.4 || r.SingleCoverage > 0.85 {
		t.Errorf("single-run coverage = %.3f, paper reports 0.615", r.SingleCoverage)
	}
	if r.SingleAccuracy < 0.95 {
		t.Errorf("single-run accuracy = %.3f, paper reports 0.992", r.SingleAccuracy)
	}
	if r.FullAccuracy < 0.9 {
		t.Errorf("two-run accuracy = %.3f, paper reports 0.989", r.FullAccuracy)
	}
}

func TestFig54BTB(t *testing.T) {
	r := RunFig54(&Env{}, Fig54Config{Pairs: 4, Seed: 16})
	t.Log("\n" + r.String())
	if r.BranchAccuracy < 0.9 {
		t.Errorf("branch accuracy = %.3f, paper reports 0.973", r.BranchAccuracy)
	}
	if r.MeanIterations < 15 || r.MeanIterations > 35 {
		t.Errorf("mean iterations = %.1f, paper reports 20-30", r.MeanIterations)
	}
}
