package exps

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/colocate"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/ktrace"
	"repro/internal/timebase"
	"repro/internal/victim/aes"
)

// TestEndToEndColocatedAESAttack is the full kill chain on one machine:
// reserve a core with pinned dummies (§4.4), invoke the unpinned AES victim
// (it lands on the reserved core), pin the attacker there, Flush+Reload
// through one encryption with Controlled Preemption, and recover first-round
// upper nibbles — all while the load balancer runs.
func TestEndToEndColocatedAESAttack(t *testing.T) {
	m := (&Env{}).NewMachine(CFS, 20260706)
	defer m.Shutdown()
	m.StartBalancer()
	rec := ktrace.NewRecorder()
	m.AttachTracer(rec)

	const target = 9
	plan := colocate.Prepare(m, target)
	m.RunFor(5 * timebase.Millisecond)

	key := []byte("sixteen byte key")
	pt := []byte("attacker chosen!")
	ek, err := aes.ExpandKey(key)
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := aes.BuildProgram(ek, pt, aes.DefaultLayout)

	// Spawn unpinned: placement must find the reserved core.
	victim := SpawnInvokedVictimOpts(m, "aes-victim", prog)
	if !plan.VictimLandedOnTarget(victim.Thread) {
		t.Fatalf("victim landed on core %d, want %d", victim.Thread.CoreID(), target)
	}

	// The attack: monitor all four tables.
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
				for i := 0; i < 4; i++ {
					monitors[i] = attack.NewFlushReload(e, lines[i])
					monitors[i].Flush(e)
				}
				victim.Invoke()
				return true
			}
			var sm [4][16]bool
			any := false
			for i := 0; i < 4; i++ {
				hits := monitors[i].Reload(e)
				for j, h := range hits {
					sm[i][j] = h
					any = any || h
				}
				monitors[i].Flush(e)
			}
			if any {
				tr.samples = append(tr.samples, sm)
			}
			return !victim.Done()
		},
	})
	m.Spawn("attacker", a.Run, kern.WithPin(target))
	m.Run(m.Now().Add(3*timebase.Second), func() bool { return victim.Done() })

	if !victim.Done() {
		t.Fatal("victim never finished under attack")
	}
	if !plan.Stayed(rec.CoreLog[victim.Thread.ID()]) {
		t.Fatal("victim migrated during the attack")
	}
	if len(tr.samples) < 30 {
		t.Fatalf("too few samples: %d", len(tr.samples))
	}

	// Decode: first-round nibbles from one trace; most must be right.
	x := aes.FirstRoundState(key, pt)
	correct, total := 0, 0
	for table := 0; table < 4; table++ {
		got := firstDistinctLines(tr, table, 4)
		for pos, line := range got {
			b := aes.ByteAtTablePosition(table, pos)
			total++
			if line == int(x[b]>>4) {
				correct++
			}
		}
	}
	if total < 12 {
		t.Fatalf("recovered only %d first-round positions", total)
	}
	// A single trace suffers line collisions and speculation smears (the
	// Figure 5.1 discussion) — that is why the full attack takes 5 traces
	// and votes (tested by TestFig51AES at ~99%). Here chance is 1/16;
	// well above half right demonstrates the end-to-end channel.
	if frac := float64(correct) / float64(total); frac < 0.5 {
		t.Fatalf("single-trace nibble accuracy = %.2f", frac)
	}
}
