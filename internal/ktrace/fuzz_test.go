package ktrace

import (
	"reflect"
	"testing"

	"repro/internal/cfs"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kern"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// FuzzTraceFolds holds the streaming folds to the history-keeping Recorder
// of ref_test.go. Both ride one small random machine: 1–4 cores, a loop
// victim, a Controlled Preemption attacker, and up to two more threads (a
// compute-bound noise thread and a periodic sleeper), each pinned or not,
// with the load balancer on or off. The folds attach after the first k
// spawns, so a thread can be mid-stint when they start, and the run stops
// at an arbitrary time, possibly mid-burst. For every thread, each view an
// experiment folds — its stints, wakes, vruntime series and core log, the
// instructions retired per preemption, its preemption bursts and count,
// the Δ at its first failed preemption — and the threads' labelled stint
// order must equal what the Recorder's history yields.
//
// shape packs the machine: bits 0–1 cores−1, bits 2–3 threads−2 (capped
// at 4 threads), bits 4–7 which threads are pinned. attachAfter's bit 7
// starts the balancer and the rest, modulo threads+1, is k.
func FuzzTraceFolds(f *testing.F) {
	// One core, victim and attacker: stops 25 ms in, inside the
	// attacker's first burst, so its trailing run is open.
	f.Add(uint64(1), uint8(0b0011_0000), uint8(0), uint16(1500), uint32(24_000))
	f.Add(uint64(2), uint8(0b1111_1001), uint8(1), uint16(2000), uint32(64_500))
	f.Add(uint64(3), uint8(0b0000_1111), uint8(2), uint16(900), uint32(150_000))
	f.Add(uint64(4), uint8(0b0010_0101), uint8(1), uint16(3000), uint32(23_000))
	// Three closed attacker bursts.
	f.Add(uint64(5), uint8(0b0111_1110), uint8(4), uint16(1200), uint32(99_000))
	// Four threads on three cores: stops with the sleeper's run of
	// preempting wakes open.
	f.Add(uint64(35), uint8(0b1101_1110), uint8(8), uint16(2010), uint32(64_527))
	f.Fuzz(func(t *testing.T, seed uint64, shape, attachAfter uint8, epsNs uint16, stopUs uint32) {
		cores := 1 + int(shape&3)
		threads := min(2+int(shape>>2&3), 4)
		balance := attachAfter&0x80 != 0
		sp := sched.DefaultParams(cores)
		kp := kern.DefaultParams(cores, func() sched.Scheduler { return cfs.New(sp) })
		kp.Seed = seed
		m := kern.NewMachine(kp)
		defer m.Shutdown()
		if balance {
			m.StartBalancer()
		}

		bodies := []kern.Func{
			func(e *kern.Env) { e.RunLoopForever(loopBody("victim", 0x40_0000, 8)) },
			core.NewAttacker(core.Config{
				Epsilon:   timebase.Duration(200 + int64(epsNs)%4000),
				Hibernate: 20 * timebase.Millisecond,
				Measure: func(e *kern.Env, _ core.Sample) bool {
					e.Burn(10 * timebase.Microsecond)
					return true
				},
			}).Run,
			func(e *kern.Env) { e.RunLoopForever(loopBody("noise", 0x4a_0000, 64)) },
			func(e *kern.Env) {
				for {
					e.Nanosleep(timebase.Millisecond)
					e.Burn(200 * timebase.Microsecond)
				}
			},
		}
		names := "VANS"

		rec := NewRecorder()
		rec.SampleVruntime = true
		var (
			follows         = make([]*Follow, threads)
			ths             = make([]*kern.Thread, threads)
			stints          = make([][]Stint, threads)
			wakes           = make([][]WakeRec, threads)
			series          = make([][]VSample, threads)
			coreLogs        = make([][]int, threads)
			steps           = make([][]int64, threads)
			bursts          = make([]Bursts, threads)
			preemptions     = make([]int64, threads)
			deltas          = make([]timebase.Duration, threads)
			labels          = map[int]byte{}
			pattern         []byte
			attachedFollows bool
			attach          = int(attachAfter&0x7f) % (threads + 1)
		)
		for i := range follows {
			f := &Follow{
				OnCore:     func(c int) { coreLogs[i] = append(coreLogs[i], c) },
				OnVruntime: func(s VSample) { series[i] = append(series[i], s) },
				OnStint: func(s Stint) {
					stints[i] = append(stints[i], s)
					pattern = append(pattern, names[i])
					if s.Reason == kern.OutPreemptedWakeup {
						steps[i] = append(steps[i], s.Retired)
					}
				},
			}
			failed := false
			f.OnWake = func(w WakeRec) {
				wakes[i] = append(wakes[i], w)
				bursts[i].Add(w)
				if w.Preempted {
					preemptions[i]++
				} else if !failed {
					failed = true
					deltas[i] = timebase.Duration(w.CurrVruntime - w.WokenVruntime)
				}
			}
			follows[i] = f
		}
		attachAll := func() {
			m.AttachTracer(rec)
			for _, f := range follows {
				m.AttachTracer(f)
			}
			attachedFollows = true
		}
		for i := 0; i < threads; i++ {
			if i == attach {
				attachAll()
			}
			var opts []kern.SpawnOption
			if shape>>(4+i)&1 == 1 {
				pin := i % cores
				if i == 1 {
					pin = 0 // the attacker shares the victim's core
				}
				opts = append(opts, kern.WithPin(pin))
			}
			if attachedFollows {
				opts = append(opts, follows[i].Bind())
			}
			ths[i] = m.Spawn(names[i:i+1], bodies[i], opts...)
			follows[i].Thread = ths[i]
			labels[ths[i].ID()] = names[i]
		}
		if !attachedFollows {
			attachAll()
		}
		m.RunFor(timebase.Millisecond + timebase.Duration(stopUs%150_000)*timebase.Microsecond)

		for i, th := range ths {
			check := func(view string, fold, ref any) {
				t.Helper()
				if !reflect.DeepEqual(fold, ref) {
					t.Fatalf("%s of thread %c: fold\n%v\nrecorder\n%v", view, names[i], fold, ref)
				}
			}
			var wantStints []Stint
			for _, s := range rec.Stints {
				if s.Thread == th {
					wantStints = append(wantStints, s)
				}
			}
			var wantWakes []WakeRec
			var wantDelta timebase.Duration
			for _, w := range rec.Wakes {
				if w.Thread == th {
					wantWakes = append(wantWakes, w)
				}
			}
			for _, w := range wantWakes {
				if !w.Preempted {
					wantDelta = timebase.Duration(w.CurrVruntime - w.WokenVruntime)
					break
				}
			}
			check("stints", stints[i], wantStints)
			check("wakes", wakes[i], wantWakes)
			check("vruntime series", series[i], rec.VSeriesOf(th.ID()))
			check("core log", coreLogs[i], rec.CoreLog[th.ID()])
			check("steps", steps[i], rec.StepsOf(th))
			check("bursts", bursts[i].Runs(), rec.PreemptionBursts(th))
			check("preemptions", preemptions[i], rec.PreemptionsOf(th))
			check("Δ at first failed preemption", deltas[i], wantDelta)
		}
		if got, want := string(pattern), rec.InterleavePattern(labels); got != want {
			t.Fatalf("labelled stint order: fold\n%s\nrecorder\n%s", got, want)
		}
	})
}

func loopBody(name string, base uint64, n int) []isa.Inst {
	b := isa.NewBuilder(name, base, 4)
	b.ALU(n)
	return b.Build().Insts
}
