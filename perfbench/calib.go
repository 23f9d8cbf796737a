package main

// calib.go holds the reference loop: a fixed piece of work, owned by the
// benchmark and never changed by changes to the program, run between the
// measured units of every run.
//
// On a shared host the speed a process gets drifts by tens of percent over
// minutes as neighbours load the machine. On a 2-vCPU VM, runs of one
// workload spread up to 35% between quartiles, and the process's CPU time
// drifted with its wall time, so the code itself ran slower. The program's
// hot paths allocate small pointer objects and grow maps; a loop doing the
// same slows with them. Dividing a run's times by its reference-loop time
// cancels most of the drift (README.md gives the figures). Of the loops
// tried (hashing, map lookups, sorting, channel ping-pong, JSON encoding,
// file writes with fsync), allocation into a map tracked the workloads best.

import (
	"runtime"
	"time"
)

// refNominal is the reference loop's wall time on a quiet 2-vCPU Xeon VM.
// A normalized time is a measured time × refNominal ÷ the run's median
// reference-loop time: seconds as they would read on that host when quiet.
const refNominal = 30 * time.Millisecond

// refMinReps is the fewest times the loop runs before each measured unit;
// it runs on until it has taken refShare of the previous unit's wall time,
// so a run with few long units still gathers enough loop times.
const (
	refMinReps = 2
	refShare   = 1.0 / 16
)

// refObjects is how many heap objects one reference loop allocates.
const refObjects = 120000

// refNode is one heap object of the reference loop.
type refNode struct {
	key  uint64
	next *refNode
	pad  [4]uint64
}

// refSink keeps the reference loop's result live.
var refSink uint64

// reference runs the loop after a GC, at least refMinReps times and until
// the runs take minTotal, and returns each wall time. The loop allocates
// refObjects linked nodes and inserts each into a map under a pseudo-random
// key.
func reference(minTotal time.Duration) []time.Duration {
	runtime.GC()
	var out []time.Duration
	var total time.Duration
	for len(out) < refMinReps || total < minTotal {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		m := make(map[uint64]*refNode)
		var prev *refNode
		for i := 0; i < refObjects; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			n := &refNode{key: x, next: prev}
			n.pad[i%4] = uint64(i)
			m[x] = n
			prev = n
		}
		refSink += uint64(len(m)) + prev.key
		out = append(out, time.Since(start))
		total += out[len(out)-1]
	}
	return out
}

// normalizer is the factor that turns a run's measured seconds into
// normalized seconds: refNominal ÷ the median reference-loop time.
func normalizer(ref []time.Duration) float64 {
	var s []float64
	for _, d := range ref {
		s = append(s, d.Seconds())
	}
	return refNominal.Seconds() / median(s)
}
