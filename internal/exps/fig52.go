package exps

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kern"
	"repro/internal/leak"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/rsakeys"
	"repro/internal/timebase"
	"repro/internal/victim/base64"
)

// Fig52Config tunes the SGX base64/RSA-PEM attack.
type Fig52Config struct {
	// Keys is the number of randomized RSA-1024 keys (the paper uses 30).
	Keys int
	Seed uint64
}

// Fig52Result is the SGX attack outcome plus one probe-latency trace
// segment.
type Fig52Result struct {
	Config Fig52Config
	// MeanChars is the mean PEM-body length in base64 characters (paper:
	// 872 on average).
	MeanChars float64
	// SingleCoverage is the mean fraction of the LUT trace recovered in
	// one victim execution before the budget ran out (paper: 61.5%).
	SingleCoverage float64
	// SingleAccuracy is the accuracy over the covered prefix (paper:
	// 99.2%).
	SingleAccuracy float64
	// FullAccuracy is the accuracy of the two-run concatenated trace
	// (paper: 98.9%).
	FullAccuracy float64
	// TraceNames/TraceRows are a Figure 5.2-style probe-latency segment:
	// validity-code set, LUT set 0, LUT set 1.
	TraceNames []string
	TraceRows  [][]int64
	// MeanBitsLeaked is the key-search-space reduction of the two-run
	// spliced trace, per key (the "shrinks the search space" step the
	// paper hands to RSA cryptanalysis).
	MeanBitsLeaked float64
	// AnchorOK counts keys whose trace agreed with the public DER prefix.
	AnchorOK int
}

// sgxRun is one attacked victim execution.
type sgxRun struct {
	// bits is the recovered per-character LUT line sequence.
	bits []int
	// codeLat/lut0Lat/lut1Lat are per-sample probe latencies (for the
	// figure).
	codeLat, lut0Lat, lut1Lat []int64
}

// RunFig52 reproduces §5.2: LLC Prime+Probe against OpenSSL-style base64
// PEM decoding inside an SGX enclave, from userspace, including the
// insufficient-budget problem and its two-run trace-splicing fix.
func RunFig52(env *Env, cfg Fig52Config) *Fig52Result {
	if cfg.Keys <= 0 {
		cfg.Keys = 30
	}
	res := &Fig52Result{Config: cfg}
	// Each key is one trial; its generator is forked off the experiment's
	// before the fan-out, in key order.
	r := rng.New(cfg.Seed ^ 0xb64)
	keyRNGs := make([]*rng.RNG, cfg.Keys)
	for k := range keyRNGs {
		keyRNGs[k] = r.Fork(uint64(k))
	}
	keys := Trials(env, cfg.Keys, func(env *Env, k int) sgxKey {
		return attackSGXKey(env, keyRNGs[k], cfg.Seed+uint64(k*97), k == 0)
	})
	var covSum, accSum, fullSum, charSum float64
	for _, kr := range keys {
		charSum += kr.chars
		covSum += kr.cov
		accSum += kr.acc
		fullSum += kr.full
		res.MeanBitsLeaked += kr.bitsLeaked
		if kr.anchorOK {
			res.AnchorOK++
		}
	}
	res.TraceNames = []string{"code", "LUT[0]", "LUT[1]"}
	res.TraceRows = keys[0].traceRows
	n := float64(cfg.Keys)
	res.MeanChars = charSum / n
	res.SingleCoverage = covSum / n
	res.SingleAccuracy = accSum / n
	res.FullAccuracy = fullSum / n
	res.MeanBitsLeaked /= n
	return res
}

// sgxKey is one key's outcome: the PEM body length, run 1's coverage and
// accuracy, the spliced trace's accuracy and leakage, and — for the
// figure's key — run 1's probe-latency segment.
type sgxKey struct {
	chars, cov, acc, full, bitsLeaked float64
	anchorOK                          bool
	traceRows                         [][]int64
}

// attackSGXKey generates one RSA key from r and attacks its PEM decode
// twice (§5.2): run 1 from the start, run 2 from a profiled midpoint, then
// splices the two traces. seed seeds the three machines, which all run the
// one victim program built here: executing a program never modifies it.
func attackSGXKey(env *Env, r *rng.RNG, seed uint64, withTrace bool) sgxKey {
	key, err := rsakeys.Generate(r)
	if err != nil {
		panic(err)
	}
	input := key.PEMBody()
	truth := base64.LineBits(input)
	out := sgxKey{chars: float64(len(input))}
	prog, _, err := base64.BuildProgram(input, base64.DefaultLayout, base64.DefaultBuildOptions)
	if err != nil {
		panic(err)
	}

	// Run 1: attack from the start of the decode.
	run1 := runSGXOnce(env, prog, 0, seed)
	if withTrace {
		n := len(run1.codeLat)
		if n > 260 {
			n = 260
		}
		out.traceRows = [][]int64{run1.codeLat[:n], run1.lut0Lat[:n], run1.lut1Lat[:n]}
	}
	out.cov = float64(len(run1.bits)) / float64(len(truth))
	if out.cov > 1 {
		out.cov = 1
	}
	out.acc = prefixAccuracy(run1.bits, truth)

	// Run 2: profile the victim's standalone duration, then start the
	// attack a bit before the halfway point and splice.
	profile := profileSGXDuration(env, prog, seed+3)
	delay := timebase.Duration(float64(profile) * 0.45)
	run2 := runSGXOnce(env, prog, delay, seed+7)
	full := spliceTraces(run1.bits, run2.bits, len(truth))
	out.full = prefixAccuracy(full, truth)
	rep := leak.Analyze(input, full)
	out.bitsLeaked = rep.BitsLeaked()
	out.anchorOK = rep.PublicAnchorOK
	return out
}

// runSGXOnce attacks one execution of the victim program prog, starting
// the preemption loop startDelay after the victim is invoked.
func runSGXOnce(env *Env, prog *isa.Program, startDelay timebase.Duration, seed uint64) *sgxRun {
	// The paper's SGX victim is compiled with the LVI mitigation
	// (MITIGATION-CVE2020-0551=LOAD), which fences every load and thereby
	// suppresses the speculative touches that would otherwise smear the
	// cache channel (§5.2).
	m := env.NewMachine(CFS, seed, WithKernParams(func(kp *kern.Params) {
		kp.SpecProb = 0
	}))
	defer m.Shutdown()

	victim := SpawnInvokedVictim(m, "sgx-victim", prog, 0,
		kern.WithEnclave(), kern.WithITLB(), kern.WithFetchThroughCache())

	out := &sgxRun{}
	var esCode, esDecode, esLUT0, esLUT1 *attack.EvictionSet
	var group []int
	closeGroup := func() {
		if len(group) == 0 {
			return
		}
		out.bits = append(out.bits, snapChunk(group)...)
		group = nil
	}
	started := false
	// ε gives the victim a ~350ns window: wide enough for the in-flight
	// validity-loop LUT load to start (one character per preemption),
	// narrow enough that a second load essentially never does (§5.2's
	// "set I_victim to exactly one loop iteration").
	a := core.NewAttacker(core.Config{
		Epsilon:        1720 * timebase.Nanosecond,
		Hibernate:      70 * timebase.Millisecond,
		StopAfterBurst: true,
		Measure: func(e *kern.Env, s core.Sample) bool {
			if !started {
				started = true
				esCode = attack.BuildEvictionSet(e, base64.DefaultLayout.ValidityCode, 16)
				esDecode = attack.BuildEvictionSet(e, base64.DefaultLayout.DecodeCode, 16)
				esLUT0 = attack.BuildEvictionSet(e, base64.DefaultLayout.LUTLineAddr(0), 16)
				esLUT1 = attack.BuildEvictionSet(e, base64.DefaultLayout.LUTLineAddr(1), 16)
				esCode.Prime(e)
				esDecode.Prime(e)
				esLUT0.Prime(e)
				esLUT1.Prime(e)
				victim.Invoke()
				if startDelay > 0 {
					// §5.2 second run: let the victim progress, then
					// start preempting halfway through. The short sleep
					// keeps the attacker's sleeper placement.
					e.Nanosleep(startDelay)
					esCode.Prime(e)
					esDecode.Prime(e)
					esLUT0.Prime(e)
					esLUT1.Prime(e)
				}
				return true
			}
			// The recording/bookkeeping work of the real measurement
			// procedure (trace buffering, thresholding): this dominates
			// I_attacker and sets where the preemption budget runs out —
			// calibrated so a single victim execution covers the paper's
			// ~60% of the trace (see EXPERIMENTS.md).
			e.Burn(700 * timebase.Nanosecond)
			// Probe order: instruction sets first (they both stall the
			// victim and tell the loops apart), then the LUT sets;
			// probing re-primes each set.
			tCode, missCode := esCode.Probe(e)
			_, missDecode := esDecode.Probe(e)
			t0, m0 := esLUT0.Probe(e)
			t1, m1 := esLUT1.Probe(e)
			out.codeLat = append(out.codeLat, tCode)
			out.lut0Lat = append(out.lut0Lat, t0)
			out.lut1Lat = append(out.lut1Lat, t1)
			switch {
			case missCode > 0 && missDecode == 0:
				// Pure validity-loop nap: record which LUT line the
				// victim read.
				switch {
				case m0 > 0 && m1 == 0:
					group = append(group, 0)
				case m1 > 0 && m0 == 0:
					group = append(group, 1)
				case m0 > 0 && m1 > 0:
					// Two characters crossed a line boundary in one nap;
					// input order is unknown — emit low line first.
					group = append(group, 0, 1)
				}
			case missDecode > 0 && missCode == 0 && len(group) > 0:
				// The decode loop of this 64-char group started: close
				// and chunk-align the validity trace collected so far.
				closeGroup()
			}
			return !victim.Done()
		},
	})
	m.Spawn("attacker", a.Run, kern.WithPin(0))
	m.Run(m.Now().Add(5*timebase.Second), func() bool { return victim.Done() })
	closeGroup()
	return out
}

// snapChunk exploits EVP_DecodeUpdate's fixed 64-character grouping: a
// validity-loop phase covers exactly 64 input characters, so a recovered
// group near that length is aligned to it (trimming boundary duplicates,
// padding boundary drops). Groups far from 64 (the final partial chunk, or
// a budget-truncated one) are kept as observed. This keeps occasional
// per-chunk errors local instead of shifting the rest of the trace.
func snapChunk(group []int) []int {
	const chunk = 64
	if len(group) == chunk || len(group) < chunk-6 || len(group) > chunk+6 {
		return group
	}
	out := append([]int(nil), group...)
	for len(out) > chunk {
		out = out[:len(out)-1]
	}
	for len(out) < chunk {
		out = append(out, 1)
	}
	return out
}

// profileSGXDuration measures the victim's unattacked execution time — the
// offline profiling run the attacker uses to time its run-2 hibernation.
func profileSGXDuration(env *Env, prog *isa.Program, seed uint64) timebase.Duration {
	m := env.NewMachine(CFS, seed)
	defer m.Shutdown()
	victim := SpawnInvokedVictim(m, "profile-victim", prog, 0,
		kern.WithEnclave(), kern.WithITLB(), kern.WithFetchThroughCache())
	victim.Invoke()
	var start, end timebase.Time
	start = m.Now()
	m.Run(m.Now().Add(timebase.Second), func() bool { return victim.Done() })
	end = m.Now()
	return end.Sub(start)
}

// prefixAccuracy scores got against the aligned prefix of want.
func prefixAccuracy(got, want []int) float64 {
	if len(got) == 0 {
		return 0
	}
	n := len(got)
	if n > len(want) {
		n = len(want)
	}
	match := 0
	for i := 0; i < n; i++ {
		if got[i] == want[i] {
			match++
		}
	}
	return float64(match) / float64(n)
}

// spliceTraces concatenates run-1's prefix with run-2's suffix by sliding
// run-2 over run-1's tail and picking the overlap offset with the best
// agreement (§5.2's concatenation step).
func spliceTraces(run1, run2 []int, total int) []int {
	if len(run2) == 0 {
		return run1
	}
	bestOff, bestScore := total-len(run2), -1.0
	lo := len(run1) - len(run2)
	if lo < 0 {
		lo = 0
	}
	hi := len(run1)
	for off := lo; off <= hi; off++ {
		// Overlap between run1[off:] and run2[:...].
		n := len(run1) - off
		if n > len(run2) {
			n = len(run2)
		}
		if n <= 0 {
			break
		}
		match := 0
		for i := 0; i < n; i++ {
			if run1[off+i] == run2[i] {
				match++
			}
		}
		score := float64(match)/float64(n) + float64(n)/float64(10*total)
		if score > bestScore {
			bestScore, bestOff = score, off
		}
	}
	out := append([]int(nil), run1[:min(bestOff, len(run1))]...)
	out = append(out, run2...)
	if len(out) > total {
		out = out[:total]
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// String renders the headline numbers and the probe-latency segment.
func (r *Fig52Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.2/fig5.2 — SGX base64 PEM decode, LLC Prime+Probe from userspace (%d RSA-1024 keys)\n", r.Config.Keys)
	fmt.Fprintf(&b, "  mean PEM body: %.0f base64 chars (paper: 872)\n", r.MeanChars)
	b.WriteString(report.PercentBar("single-run trace coverage (paper 61.5%)", r.SingleCoverage))
	b.WriteString(report.PercentBar("single-run accuracy (paper 99.2%)", r.SingleAccuracy))
	b.WriteString(report.PercentBar("two-run spliced accuracy (paper 98.9%)", r.FullAccuracy))
	fmt.Fprintf(&b, "  search-space reduction: %.0f bits/key over the secret region (public-prefix anchor ok: %d/%d)\n",
		r.MeanBitsLeaked, r.AnchorOK, r.Config.Keys)
	if len(r.TraceRows) == 3 {
		fmt.Fprintf(&b, "  probe-latency trace segment (validity loop shows high code-set latency):\n")
		b.WriteString(report.LatencyTrace(r.TraceNames, r.TraceRows, [2]int64{1000, 2500}))
	}
	return b.String()
}
