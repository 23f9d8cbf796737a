package exps

import (
	"fmt"
	"strings"
)

// ExtNoiseConfig tunes the channel-noise extension experiment.
type ExtNoiseConfig struct {
	// Keys per cell.
	Keys int
	// Noise is the ambient LLC-eviction rate per attacker wake.
	Noise float64
	Seed  uint64
}

// ExtNoiseResult quantifies §4.3's channel-noise discussion on the AES
// attack: random LLC traffic from other cores flips Flush+Reload readings;
// combining multiple victim runs (the paper's first amelioration strategy)
// restores accuracy.
type ExtNoiseResult struct {
	Config ExtNoiseConfig
	// QuietOneTrace / QuietFiveTraces are accuracies on the quiescent
	// machine with 1 and 5 victim runs per key.
	QuietOneTrace, QuietFiveTraces float64
	// NoisyOneTrace / NoisyFiveTraces repeat under LLC noise.
	NoisyOneTrace, NoisyFiveTraces float64
}

// RunExtNoise measures AES upper-nibble accuracy across
// {quiet, noisy} × {1 trace, 5 traces}.
func RunExtNoise(env *Env, cfg ExtNoiseConfig) *ExtNoiseResult {
	if cfg.Keys <= 0 {
		cfg.Keys = 6
	}
	if cfg.Noise <= 0 {
		cfg.Noise = 4
	}
	run := func(traces int, noiseRate float64, seedOff uint64) float64 {
		r := RunFig51(env, Fig51Config{
			Keys:         cfg.Keys,
			TracesPerKey: traces,
			Sched:        CFS,
			AmbientNoise: noiseRate,
			Seed:         cfg.Seed + seedOff,
		})
		return r.NibbleAccuracy
	}
	return &ExtNoiseResult{
		Config:          cfg,
		QuietOneTrace:   run(1, 0, 1),
		QuietFiveTraces: run(5, 0, 2),
		NoisyOneTrace:   run(1, cfg.Noise, 1),
		NoisyFiveTraces: run(5, cfg.Noise, 2),
	}
}

// VotingRecovers reports the paper's claim: under noise, multi-run voting
// recovers most of the lost accuracy.
func (r *ExtNoiseResult) VotingRecovers() bool {
	return r.NoisyFiveTraces > r.NoisyOneTrace && r.NoisyFiveTraces >= 0.9
}

// String renders the 2×2 table.
func (r *ExtNoiseResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ext.noise — AES accuracy under LLC channel noise (%d keys, %.0f evictions/wake)\n",
		r.Config.Keys, r.Config.Noise)
	fmt.Fprintf(&b, "  %-22s %10s %10s\n", "", "1 trace", "5 traces")
	fmt.Fprintf(&b, "  %-22s %9.1f%% %9.1f%%\n", "quiescent machine", 100*r.QuietOneTrace, 100*r.QuietFiveTraces)
	fmt.Fprintf(&b, "  %-22s %9.1f%% %9.1f%%\n", "with LLC noise", 100*r.NoisyOneTrace, 100*r.NoisyFiveTraces)
	fmt.Fprintf(&b, "  multi-run voting recovers accuracy under noise (§4.3 strategy 1): %v\n", r.VotingRecovers())
	return b.String()
}
