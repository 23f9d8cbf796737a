package exps

import "testing"

func TestExtNoise(t *testing.T) {
	r := RunExtNoise(&Env{}, ExtNoiseConfig{Keys: 3, Seed: 21})
	t.Log("\n" + r.String())
	if r.QuietFiveTraces < 0.9 {
		t.Errorf("quiet 5-trace accuracy = %.3f", r.QuietFiveTraces)
	}
	if r.NoisyOneTrace >= r.QuietOneTrace {
		t.Errorf("noise did not degrade 1-trace accuracy: %.3f vs %.3f", r.NoisyOneTrace, r.QuietOneTrace)
	}
	if !r.VotingRecovers() {
		t.Errorf("voting did not recover: 1-trace %.3f, 5-trace %.3f", r.NoisyOneTrace, r.NoisyFiveTraces)
	}
}
