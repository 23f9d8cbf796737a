package metrics

import (
	"fmt"
	"sync"
	"testing"
)

// TestInternConcurrent: goroutines, each with its own registry as campaign
// workers have, intern the same new names at once and register them. Every
// goroutine must get the same Name per string, one id per name, and a
// registry that reads back what it counted.
func TestInternConcurrent(t *testing.T) {
	const workers, names = 4, 50
	got := make([][]Name, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := New()
			for i := 0; i < names; i++ {
				n := Intern(fmt.Sprintf(`intern_race_total{i="%d"}`, i))
				got[w] = append(got[w], n)
				r.CounterOf(n).Add(int64(w))
			}
			if total := r.Total("intern_race_total"); total != int64(w*names) {
				t.Errorf("worker %d: Total = %d, want %d", w, total, w*names)
			}
		}(w)
	}
	wg.Wait()
	ids := map[int]string{}
	for i := 0; i < names; i++ {
		n := got[0][i]
		for w := 1; w < workers; w++ {
			if got[w][i] != n {
				t.Fatalf("name %d interned twice: %v and %v", i, got[w][i].n, n.n)
			}
		}
		if prev, ok := ids[n.n.id]; ok {
			t.Fatalf("id %d handed to %q and %q", n.n.id, prev, n.n.name)
		}
		ids[n.n.id] = n.n.name
		if n.n.base != Intern("intern_race_total").n {
			t.Fatalf("%q: family is %q", n.n.name, n.n.base.name)
		}
	}
}
