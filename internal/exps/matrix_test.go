package exps

import (
	"reflect"
	"testing"

	"repro/internal/defense"
	"repro/internal/timebase"
)

func TestMatrixCellDeterministicPerSeed(t *testing.T) {
	cfg := MatrixCellConfig{Attack: "nanosleep", Defense: "slackrand", Target: 200, Seed: 7}
	a, err := RunMatrixCell(&Env{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMatrixCell(&Env{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed cells diverged:\n%+v\n%+v", a, b)
	}
	if a.String() != b.String() {
		t.Fatal("renderings diverged")
	}
}

func TestMatrixCellOffBaseline(t *testing.T) {
	r, err := RunMatrixCell(&Env{}, MatrixCellConfig{Attack: "nanosleep", Defense: "off", Target: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.SuccessRate != 1 {
		t.Fatalf("undefended nanosleep attack success %.3f, want 1", r.SuccessRate)
	}
	if r.Overhead != 0 {
		t.Fatalf("off column overhead %.4f, want exactly 0 (same machine both sides)", r.Overhead)
	}
}

func TestMatrixCellCordonCollapsesTimerAttack(t *testing.T) {
	off, err := RunMatrixCell(&Env{}, MatrixCellConfig{Attack: "nanosleep", Defense: "off", Target: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cor, err := RunMatrixCell(&Env{}, MatrixCellConfig{Attack: "nanosleep", Defense: "cordon", Target: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cor.SuccessRate != 0 {
		t.Fatalf("cordoned attacker still succeeded: %.3f", cor.SuccessRate)
	}
	if cor.Amplification >= off.Amplification {
		t.Fatalf("cordon kept amplification: %.2f vs %.2f undefended",
			cor.Amplification, off.Amplification)
	}
	if cor.Overhead <= 0 {
		t.Fatalf("reserving a core reported no benign cost: %.4f", cor.Overhead)
	}
}

func TestMatrixCellRejectsUnknownAxes(t *testing.T) {
	if _, err := RunMatrixCell(&Env{}, MatrixCellConfig{Attack: "rowhammer", Defense: "off"}); err == nil {
		t.Fatal("unknown attack accepted")
	}
	if _, err := RunMatrixCell(&Env{}, MatrixCellConfig{Attack: "nanosleep", Defense: "prayer"}); err == nil {
		t.Fatal("unknown defense preset accepted")
	}
}

// TestDefenseAmbientScoping: a defense lives in the Env that carries it.
// Concurrent runs under different Envs each get their own countermeasures,
// and deriving a defended Env never changes the one it came from.
func TestDefenseAmbientScoping(t *testing.T) {
	cordon := &Env{Defense: defense.Config{CordonCores: []int{0}, CordonAllow: []string{"victim"}}}
	slack := cordon.withDefense(defense.Config{SlackRandMax: 10 * timebase.Microsecond})
	summaries := make(chan string, 2)
	for _, env := range []*Env{cordon, slack} {
		go func(env *Env) {
			m := env.NewMachine(CFS, 1)
			defer m.Shutdown()
			summaries <- m.Defense().Config().Summary()
		}(env)
	}
	got := map[string]bool{<-summaries: true, <-summaries: true}
	if !got["cordon=0:victim"] || len(got) != 2 {
		t.Fatalf("concurrent envs installed %v, want the cordon and the slack defense", got)
	}
	if !reflect.DeepEqual(cordon.Defense.CordonCores, []int{0}) || cordon.Defense.SlackRandMax != 0 {
		t.Fatalf("withDefense changed the env it derived from: %+v", cordon.Defense)
	}
}

// TestDefenseAmbientReachesMachine: the env's defense is installed into
// every machine built from it.
func TestDefenseAmbientReachesMachine(t *testing.T) {
	env := &Env{Defense: defense.Config{CordonCores: []int{0}, CordonAllow: []string{"victim"}}}
	m := env.NewMachine(CFS, 1)
	defer m.Shutdown()
	if m.Defense() == nil {
		t.Fatal("env defense not installed into the machine")
	}
	if got := m.Defense().Config().Summary(); got != "cordon=0:victim" {
		t.Fatalf("installed config %q", got)
	}
}
