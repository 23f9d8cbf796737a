package exps

import (
	"testing"

	"repro/internal/victim/aes"
)

// TestNoiseRemovesHits pins the channel-noise mechanism at the reading
// level: ambient evictions make Flush+Reload lose victim accesses (false
// negatives), which is the §4.3 channel noise the voting strategy absorbs.
func TestNoiseRemovesHits(t *testing.T) {
	key := make([]byte, 16)
	pt := make([]byte, 16)
	ek, _ := aes.ExpandKey(key)
	count := func(noiseRate float64) int {
		tr := collectAESTrace(&Env{}, Fig51Config{Sched: CFS, AmbientNoise: noiseRate}, ek, pt, 333)
		hits := 0
		for _, s := range tr.samples {
			for tbl := 0; tbl < 4; tbl++ {
				for ln := 0; ln < 16; ln++ {
					if s[tbl][ln] {
						hits++
					}
				}
			}
		}
		return hits
	}
	quiet, noisy := count(0), count(6)
	if noisy >= quiet {
		t.Fatalf("noise did not remove hits: quiet=%d noisy=%d", quiet, noisy)
	}
	// The channel must survive: most hits still land.
	if noisy < quiet/2 {
		t.Fatalf("noise destroyed the channel: quiet=%d noisy=%d", quiet, noisy)
	}
}
