package exps

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/timebase"
	"repro/internal/victim/gcd"
)

// Fig54Config tunes the BTB control-flow attack.
type Fig54Config struct {
	// Pairs is the number of prime pairs (the paper uses 30, each giving
	// 20–30 GCD loop iterations).
	Pairs int
	Seed  uint64
}

// Fig54Result is the BTB attack outcome.
type Fig54Result struct {
	Config Fig54Config
	// BranchAccuracy is the per-iteration branch-direction recovery
	// accuracy from a single victim run (paper: 97.3%).
	BranchAccuracy float64
	// MeanIterations is the mean GCD loop length.
	MeanIterations float64
	// ExampleTruth/ExampleGot are the paper's a=1001941, b=300463 run.
	ExampleTruth []bool
	ExampleGot   []bool
}

// RunFig54 reproduces §5.3: recovering the secret-dependent branch
// directions of mbedtls_mpi_gcd via the BTB side channel (NightVision),
// with Controlled Preemption instead of SGX-Step, and the Figure 5.3
// Train+Probe gadgets instead of privileged performance counters.
func RunFig54(env *Env, cfg Fig54Config) *Fig54Result {
	if cfg.Pairs <= 0 {
		cfg.Pairs = 30
	}
	res := &Fig54Result{Config: cfg}
	r := rng.New(cfg.Seed ^ 0xb7b)

	// The paper's worked example first (Figure 5.4).
	exTruth, exGot := runGCDAttack(env, mpi.New(1001941), mpi.New(300463), cfg.Seed+1)
	res.ExampleTruth, res.ExampleGot = exTruth, exGot

	var correct, total, iters int
	for p := 0; p < cfg.Pairs; p++ {
		a := mpi.New(randomPrime20(r))
		b := mpi.New(randomPrime20(r))
		truth, got := runGCDAttack(env, a, b, cfg.Seed+uint64(p*131)+17)
		iters += len(truth)
		n := len(got)
		if n > len(truth) {
			n = len(truth)
		}
		for i := 0; i < n; i++ {
			if got[i] == truth[i] {
				correct++
			}
		}
		total += len(truth)
	}
	res.BranchAccuracy = float64(correct) / float64(total)
	res.MeanIterations = float64(iters) / float64(cfg.Pairs)
	return res
}

// randomPrime20 returns a random small prime (trial division is plenty at
// this size), sized so the GCD loop runs the paper's 20–30 iterations.
func randomPrime20(r *rng.RNG) uint64 {
	for {
		n := uint64(r.Range(1<<26, 1<<28)) | 1
		if isSmallPrime(n) {
			return n
		}
	}
}

func isSmallPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for d := uint64(2); d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// runGCDAttack runs one attacked gcd(a,b) and returns (ground truth,
// recovered) branch directions.
func runGCDAttack(env *Env, a, b *mpi.Int, seed uint64) (truth, got []bool) {
	// The BTB channel is immune to data-cache speculation smear, but the
	// victim is built like the §5.2 one (LVI-mitigated enclave code), so
	// the same suppression applies.
	m := env.NewMachine(CFS, seed, WithKernParams(func(kp *kern.Params) {
		kp.SpecProb = 0
	}))
	defer m.Shutdown()

	prog, steps := gcd.BuildProgram(a, b, gcd.DefaultLayout)
	truth = mpi.BranchTrace(steps)
	victim := SpawnInvokedVictim(m, "gcd-victim", prog, 0,
		kern.WithEnclave(), kern.WithITLB(), kern.WithFetchThroughCache())

	var ifGadget, elseGadget *attack.BTBGadget
	var esLoop *attack.EvictionSet
	started := false
	// One GCD loop iteration per preemption (same ε reasoning as the
	// base64 attack: the iteration's first instructions are stretched by
	// the AEX TLB flush and the loop-head code-line eviction).
	att := core.NewAttacker(core.Config{
		Epsilon:        1550 * timebase.Nanosecond,
		Hibernate:      70 * timebase.Millisecond,
		StopAfterBurst: true,
		Measure: func(e *kern.Env, s core.Sample) bool {
			if !started {
				started = true
				// One gadget pair per branch direction (§5.3), plus the
				// loop-head code eviction set that stalls the victim once
				// per iteration (the §5.2 technique).
				ifGadget = attack.NewBTBGadget(e, gcd.DefaultLayout.IfBlock)
				elseGadget = attack.NewBTBGadget(e, gcd.DefaultLayout.ElseBlock)
				esLoop = attack.BuildEvictionSet(e, gcd.DefaultLayout.LoopHead, 16)
				ifGadget.Prime(e)
				elseGadget.Prime(e)
				esLoop.Prime(e)
				victim.Invoke()
				return true
			}
			ifAlive := ifGadget.Probe(e)
			elseAlive := elseGadget.Probe(e)
			esLoop.Probe(e) // re-primes the stall set
			switch {
			case !ifAlive && elseAlive:
				got = append(got, true)
			case ifAlive && !elseAlive:
				got = append(got, false)
			case !ifAlive && !elseAlive:
				// Two iterations in one nap with both directions taken:
				// order unknown; the comparison-driven algorithm rarely
				// alternates twice in a nap, so emit if-then-else.
				got = append(got, true, false)
			}
			return !victim.Done()
		},
	})
	m.Spawn("attacker", att.Run, kern.WithPin(0))
	m.Run(m.Now().Add(5*timebase.Second), func() bool { return victim.Done() })
	return truth, got
}

// String renders the headline plus the worked example.
func (r *Fig54Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.3/fig5.4 — mbedtls_mpi_gcd control flow via BTB Train+Probe (%d prime pairs)\n", r.Config.Pairs)
	fmt.Fprintf(&b, "  branch-direction accuracy (single run): %.1f%% (paper: 97.3%%)\n", 100*r.BranchAccuracy)
	fmt.Fprintf(&b, "  mean GCD iterations: %.1f (paper: 20–30)\n", r.MeanIterations)
	render := func(bs []bool) string {
		var s []byte
		for _, v := range bs {
			if v {
				s = append(s, 'I')
			} else {
				s = append(s, 'E')
			}
		}
		return string(s)
	}
	fmt.Fprintf(&b, "  example a=1001941 b=300463 (I=if block, E=else block):\n")
	fmt.Fprintf(&b, "    truth:     %s\n", render(r.ExampleTruth))
	fmt.Fprintf(&b, "    recovered: %s\n", render(r.ExampleGot))
	return b.String()
}
