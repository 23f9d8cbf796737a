package exps

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/ktrace"
	"repro/internal/timebase"
	"repro/internal/victim/base64"
)

// TestDebugSGXOnce is a diagnostic harness, not an assertion test: it dumps
// per-sample channel readings for one short base64 victim so decoding
// regressions are visible. Kept because it is cheap and documents the
// expected per-sample shape.
func TestDebugSGXOnce(t *testing.T) {
	input := "ABCDefgh0123+/IJKLmnop4567QRSTuvwx89abYZ"
	truth := base64.LineBits(input)

	m := (&Env{}).NewMachine(CFS, 42, WithKernParams(func(kp *kern.Params) { kp.SpecProb = 0 }))
	defer m.Shutdown()
	prog, _, err := base64.BuildProgram(input, base64.DefaultLayout, base64.DefaultBuildOptions)
	if err != nil {
		t.Fatal(err)
	}
	victim := SpawnInvokedVictim(m, "sgx-victim", prog, 0,
		kern.WithEnclave(), kern.WithITLB(), kern.WithFetchThroughCache())
	rec := ktrace.NewRecorder()
	m.AttachTracer(rec)

	var bits []int
	var esCode, esLUT0, esLUT1 *attack.EvictionSet
	started := false
	samples := 0
	a := core.NewAttacker(core.Config{
		Epsilon:        1720 * timebase.Nanosecond,
		Hibernate:      70 * timebase.Millisecond,
		StopAfterBurst: true,
		Measure: func(e *kern.Env, s core.Sample) bool {
			if !started {
				started = true
				esCode = attack.BuildEvictionSet(e, base64.DefaultLayout.ValidityCode, 16)
				esLUT0 = attack.BuildEvictionSet(e, base64.DefaultLayout.LUTLineAddr(0), 16)
				esLUT1 = attack.BuildEvictionSet(e, base64.DefaultLayout.LUTLineAddr(1), 16)
				esCode.Prime(e)
				esLUT0.Prime(e)
				esLUT1.Prime(e)
				victim.Invoke()
				return true
			}
			samples++
			_, missCode := esCode.Probe(e)
			_, m0 := esLUT0.Probe(e)
			_, m1 := esLUT1.Probe(e)
			if samples <= 60 {
				t.Logf("sample %3d: retired=%4d missCode=%d m0=%d m1=%d",
					samples, victim.Thread.Retired(), missCode, m0, m1)
			}
			if missCode > 0 {
				switch {
				case m0 > 0 && m1 == 0:
					bits = append(bits, 0)
				case m1 > 0 && m0 == 0:
					bits = append(bits, 1)
				case m0 > 0 && m1 > 0:
					bits = append(bits, 0, 1)
				}
			}
			return !victim.Done()
		},
	})
	m.Spawn("attacker", a.Run, kern.WithPin(0))
	m.Run(m.Now().Add(2*timebase.Second), func() bool { return victim.Done() })

	t.Logf("truth (%d): %v", len(truth), truth)
	t.Logf("bits  (%d): %v", len(bits), bits)
	t.Logf("prefix accuracy: %.3f, samples: %d", prefixAccuracy(bits, truth), samples)
}
