// BTB control-flow attack (§5.3): recover the secret-dependent branch
// directions of mbedTLS's binary GCD — the loop RSA key generation runs on
// its primes — using the NightVision BTB channel with Figure 5.3's
// Train+Probe gadgets, driven by Controlled Preemption.
package main

import (
	"fmt"

	"repro/internal/exps"
	"repro/internal/mpi"
)

func main() {
	// The paper's worked example first (Figure 5.4).
	g, steps := mpi.GCD(mpi.New(1001941), mpi.New(300463))
	fmt.Printf("gcd(1001941, 300463) = %v in %d iterations\n", g, len(steps))
	fmt.Println("each iteration takes the if-block (TA≥TB) or else-block — the secret")
	fmt.Println()

	res := exps.RunFig54(&exps.Env{}, exps.Fig54Config{Pairs: 6, Seed: 11})
	fmt.Printf("branch-direction recovery over %d prime pairs: %.1f%% (paper: 97.3%%)\n",
		res.Config.Pairs, 100*res.BranchAccuracy)
	fmt.Printf("mean GCD loop iterations: %.1f (paper: 20–30)\n\n", res.MeanIterations)

	render := func(bs []bool) string {
		out := make([]byte, len(bs))
		for i, v := range bs {
			if v {
				out[i] = 'I'
			} else {
				out[i] = 'E'
			}
		}
		return string(out)
	}
	fmt.Println("worked example (I = if block executed, E = else block executed):")
	fmt.Printf("  ground truth: %s\n", render(res.ExampleTruth))
	fmt.Printf("  recovered:    %s\n", render(res.ExampleGot))
}
