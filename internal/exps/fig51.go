package exps

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/noise"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/timebase"
	"repro/internal/victim/aes"
)

// Fig51Config tunes the AES first-round attack.
type Fig51Config struct {
	// Keys is the number of random keys attacked (the paper uses 100).
	Keys int
	// TracesPerKey is the number of victim invocations per key (5).
	TracesPerKey int
	// Sched selects the scheduler (the paper reports both).
	Sched Sched
	// Polluters spawns LLC-noise threads on other cores (§4.3's channel
	// noise; 0 for the paper's quiescent headline runs).
	Polluters int
	// AmbientNoise is the kernel-level ambient-eviction rate (expected
	// LLC evictions per attacker wake); see kern.Params.
	AmbientNoise float64
	Seed         uint64
}

// Fig51Result is the AES attack outcome plus one heatmap trace.
type Fig51Result struct {
	Config Fig51Config
	// NibbleAccuracy is the fraction of key-byte upper nibbles recovered
	// correctly (paper: 98.9% on CFS, 98.1% on EEVDF).
	NibbleAccuracy float64
	// PerTraceSamples is the mean number of preemption samples per trace.
	PerTraceSamples float64
	// Heatmap is the T0 Flush+Reload matrix of the first trace of the
	// first key: Heatmap[line][sample] (Figure 5.1).
	Heatmap [][]bool
	// HeatmapFirstFour are the first four distinct T0 lines observed in
	// that trace (the red circles of Figure 5.1).
	HeatmapFirstFour []int
	// HeatmapTruth are the true first-round T0 upper nibbles of that
	// trace.
	HeatmapTruth []int
}

// aesTrace is one collected Flush+Reload trace: per sample, per table, the
// 16-line hit bitmap.
type aesTrace struct {
	plaintext []byte
	samples   [][4][16]bool
}

// RunFig51 reproduces §5.1: the T-table AES first-round attack with
// Flush+Reload, 5 traces per key, combining the traces with a
// collision-robust per-byte score (the prior work the paper matches [7]
// ships similarly careful key-retrieval algorithms).
func RunFig51(env *Env, cfg Fig51Config) *Fig51Result {
	if cfg.Keys <= 0 {
		cfg.Keys = 100
	}
	if cfg.TracesPerKey <= 0 {
		cfg.TracesPerKey = 5
	}
	res := &Fig51Result{Config: cfg}
	// Each trace is one trial. Keys and plaintexts are drawn before the
	// fan-out, in the serial order: a key, then its traces' plaintexts.
	r := rng.New(cfg.Seed ^ 0xae5)
	keys := make([][]byte, cfg.Keys)
	eks := make([]*aes.Key, cfg.Keys)
	pts := make([][]byte, cfg.Keys*cfg.TracesPerKey)
	for k := range keys {
		keys[k] = make([]byte, 16)
		r.Bytes(keys[k])
		ek, err := aes.ExpandKey(keys[k])
		if err != nil {
			panic(err)
		}
		eks[k] = ek
		for t := 0; t < cfg.TracesPerKey; t++ {
			pt := make([]byte, 16)
			r.Bytes(pt)
			pts[k*cfg.TracesPerKey+t] = pt
		}
	}
	traces := Trials(env, len(pts), func(env *Env, i int) aesSummary {
		k, t := i/cfg.TracesPerKey, i%cfg.TracesPerKey
		tr := collectAESTrace(env, cfg, eks[k], pts[i], cfg.Seed+uint64(k*31+t))
		out := aesSummary{samples: len(tr.samples)}
		for table := range out.early {
			out.early[table] = firstDistinctLines(tr, table, 4)
		}
		if i == 0 {
			out.heatmap = heatmapOf(tr, 0)
		}
		return out
	})

	res.Heatmap = traces[0].heatmap
	res.HeatmapFirstFour = traces[0].early[0]
	x := aes.FirstRoundState(keys[0], pts[0])
	for pos := 0; pos < 4; pos++ {
		b := aes.ByteAtTablePosition(0, pos)
		res.HeatmapTruth = append(res.HeatmapTruth, int(x[b]>>4))
	}
	correct, total := 0, 0
	var sampleCount int64
	for k, key := range keys {
		// Per key byte, per candidate upper nibble: accumulated evidence.
		// A candidate scores high when its implied line ℓ = v ⊕ p_hi is
		// the line observed at the byte's first-round position, scores a
		// little when ℓ merely appears among the table's early lines
		// (position shifted by a line collision among the four first-
		// round accesses), and is penalized when ℓ never shows early.
		var score [16][16]int
		for t := 0; t < cfg.TracesPerKey; t++ {
			i := k*cfg.TracesPerKey + t
			pt, tr := pts[i], traces[i]
			sampleCount += int64(tr.samples)
			for table := 0; table < 4; table++ {
				lines := tr.early[table]
				inEarly := map[int]bool{}
				for _, l := range lines {
					inEarly[l] = true
				}
				for pos := 0; pos < 4; pos++ {
					b := aes.ByteAtTablePosition(table, pos)
					ph := int(pt[b] >> 4)
					for v := 0; v < 16; v++ {
						l := v ^ ph
						switch {
						case pos < len(lines) && lines[pos] == l:
							score[b][v] += 3
						case inEarly[l]:
							score[b][v]++
						default:
							score[b][v] -= 2
						}
					}
				}
			}
		}
		for b := 0; b < 16; b++ {
			best := 0
			for v := 1; v < 16; v++ {
				if score[b][v] > score[b][best] {
					best = v
				}
			}
			if best == int(key[b]>>4) {
				correct++
			}
			total++
		}
	}
	res.NibbleAccuracy = float64(correct) / float64(total)
	res.PerTraceSamples = float64(sampleCount) / float64(len(traces))
	return res
}

// aesSummary is what the key recovery reads of one trace: its sample
// count, the first four distinct lines of each table and, for the figure's
// trace, the T0 heatmap.
type aesSummary struct {
	samples int
	early   [4][]int
	heatmap [][]bool
}

// collectAESTrace runs one victim invocation under attack and returns the
// Flush+Reload trace.
func collectAESTrace(env *Env, cfg Fig51Config, key *aes.Key, pt []byte, seed uint64) *aesTrace {
	m := env.NewMachine(cfg.Sched, seed, WithKernParams(func(kp *kern.Params) {
		kp.NoiseEvictionsPerWake = cfg.AmbientNoise
	}))
	defer m.Shutdown()

	if cfg.Polluters > 0 {
		noise.SpawnPolluters(m, noise.DefaultLLCNoise, cfg.Polluters, 0)
	}
	prog, _ := aes.BuildProgram(key, pt, aes.DefaultLayout)
	victim := SpawnInvokedVictim(m, "aes-victim", prog, 0)

	// Monitor all 64 T-table lines (16 per table).
	var lines [4][]uint64
	for table := 0; table < 4; table++ {
		for ln := 0; ln < aes.LinesPerTable; ln++ {
			lines[table] = append(lines[table], aes.DefaultLayout.LineAddr(table, ln))
		}
	}
	tr := &aesTrace{plaintext: pt}
	var monitors [4]*attack.FlushReload
	a := core.NewAttacker(core.Config{
		Epsilon:   1700 * timebase.Nanosecond,
		Hibernate: 70 * timebase.Millisecond,
		Measure: func(e *kern.Env, s core.Sample) bool {
			if monitors[0] == nil {
				for t := 0; t < 4; t++ {
					monitors[t] = attack.NewFlushReload(e, lines[t])
				}
				// Pre-condition the channel before the victim starts,
				// then invoke it (the attacker chooses when, §3).
				for t := 0; t < 4; t++ {
					monitors[t].Flush(e)
				}
				victim.Invoke()
				return true
			}
			var sm [4][16]bool
			hitAny := false
			for t := 0; t < 4; t++ {
				hits := monitors[t].Reload(e)
				for i, h := range hits {
					sm[t][i] = h
					hitAny = hitAny || h
				}
				monitors[t].Flush(e)
			}
			// Zero-step oracle (§4.2): samples with no signal are
			// dropped without spending a trace slot.
			if hitAny {
				tr.samples = append(tr.samples, sm)
			}
			return !victim.Done()
		},
	})
	m.Spawn("attacker", a.Run, kern.WithPin(0))
	m.Run(m.Now().Add(5*timebase.Second), func() bool { return victim.Done() })
	return tr
}

// firstDistinctLines returns the first n distinct lines of a table in
// sample order (ties within a sample resolved by line index).
func firstDistinctLines(tr *aesTrace, table, n int) []int {
	seen := make([]bool, 16)
	var out []int
	for _, s := range tr.samples {
		for ln := 0; ln < 16; ln++ {
			if s[table][ln] && !seen[ln] {
				seen[ln] = true
				out = append(out, ln)
				if len(out) == n {
					return out
				}
			}
		}
	}
	return out
}

// heatmapOf converts a trace into the Figure 5.1 matrix for one table.
func heatmapOf(tr *aesTrace, table int) [][]bool {
	out := make([][]bool, 16)
	for ln := range out {
		out[ln] = make([]bool, len(tr.samples))
		for i, s := range tr.samples {
			out[ln][i] = s[table][ln]
		}
	}
	return out
}

// String renders the headline and the heatmap.
func (r *Fig51Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.1/fig5.1 — AES T-table first-round attack (%s, %d keys × %d traces)\n",
		r.Config.Sched, r.Config.Keys, r.Config.TracesPerKey)
	paper := "98.9%"
	if r.Config.Sched == EEVDF {
		paper = "98.1%"
	}
	fmt.Fprintf(&b, "  upper-nibble recovery accuracy: %.1f%% (paper: %s)\n", 100*r.NibbleAccuracy, paper)
	fmt.Fprintf(&b, "  mean samples per trace: %.0f\n", r.PerTraceSamples)
	if len(r.Heatmap) > 0 {
		n := len(r.Heatmap[0])
		if n > 100 {
			n = 100
		}
		trimmed := make([][]bool, 16)
		for i := range trimmed {
			trimmed[i] = r.Heatmap[i][:n]
		}
		fmt.Fprintf(&b, "  T0 heatmap (first %d samples; first-round lines %v, truth %v):\n",
			n, r.HeatmapFirstFour, r.HeatmapTruth)
		b.WriteString(report.Heatmap(trimmed, func(i int) string { return fmt.Sprintf("line %2d", i) }))
	}
	return b.String()
}
