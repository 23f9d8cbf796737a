package main

// stats.go summarizes metrics across runs and compares two sets of runs
// metric by metric against the bounds in BENCHMARK.json.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), so spreads read the same in both.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle of xs (the mean of the two middles for even sizes).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// summary is one metric across runs.
type summary struct {
	N              int
	Q1, Median, Q3 float64
}

func summarize(xs []float64) summary {
	q1, m, q3 := quartiles(xs)
	return summary{N: len(xs), Q1: q1, Median: m, Q3: q3}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// verdict of one metric on one workload.
type verdict struct {
	Workload, Metric string
	Base, Head       summary
	// Worse is the head median's change in the metric's worse direction, as
	// a share of the base median (negative = better).
	Worse float64
	Bound float64
	// Outcome is ok, regression, improved or unresolved.
	Outcome string
}

// compareSets compares head against base run by run summaries: a metric
// regresses when its head median is worse than the base median by more
// than the bound, and is unresolved when either side's spread exceeds the
// bound — unless every head run beats every base run.
func compareSets(base, head []record, specs []metricSpec) []verdict {
	var out []verdict
	for _, w := range workloadsIn(base, head) {
		for _, ms := range specs {
			bv := valuesOf(base, w, ms.Name)
			hv := valuesOf(head, w, ms.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v := verdict{Workload: w, Metric: ms.Name, Base: summarize(bv), Head: summarize(hv), Bound: ms.Bound}
			sign := 1.0
			if ms.Better == "higher" {
				sign = -1
			}
			v.Worse = sign * (v.Head.Median - v.Base.Median) / math.Abs(v.Base.Median)
			switch {
			case allBetter(hv, bv, sign):
				v.Outcome = "improved"
			case v.Base.spread() > ms.Bound || v.Head.spread() > ms.Bound:
				v.Outcome = "unresolved"
			case v.Worse > ms.Bound:
				v.Outcome = "regression"
			case v.Worse < -ms.Bound:
				v.Outcome = "improved"
			default:
				v.Outcome = "ok"
			}
			out = append(out, v)
		}
	}
	return out
}

// allBetter reports whether every head value beats every base value.
func allBetter(head, base []float64, sign float64) bool {
	worstHead, bestBase := math.Inf(-1), math.Inf(1)
	for _, h := range head {
		worstHead = math.Max(worstHead, sign*h)
	}
	for _, b := range base {
		bestBase = math.Min(bestBase, sign*b)
	}
	return worstHead < bestBase
}

func workloadsIn(sets ...[]record) []string {
	seen := map[string]bool{}
	var out []string
	for _, set := range sets {
		for _, r := range set {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				out = append(out, r.Workload)
			}
		}
	}
	sort.Strings(out)
	return out
}

func valuesOf(rs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// comparable checks that two result sets come from the same host and the
// same seeds, returning every mismatch found.
func comparable(base, head []record) []string {
	var probs []string
	hosts := map[string]bool{}
	for _, r := range append(append([]record(nil), base...), head...) {
		hosts[r.Host.key()] = true
	}
	if len(hosts) > 1 {
		var hs []string
		for h := range hosts {
			hs = append(hs, h)
		}
		sort.Strings(hs)
		probs = append(probs, "results come from different hosts: "+strings.Join(hs, " | "))
	}
	for _, w := range workloadsIn(base, head) {
		bs, hs := seedsOf(base, w), seedsOf(head, w)
		if bs != hs {
			probs = append(probs, fmt.Sprintf("%s: base seeds %s, head seeds %s", w, bs, hs))
		}
	}
	return probs
}

func seedsOf(rs []record, workload string) string {
	var seeds []uint64
	for _, r := range rs {
		if r.Workload == workload {
			seeds = append(seeds, r.Seed)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return fmt.Sprint(seeds)
}

// countMismatches lists simulated counts that differ between runs of the
// same workload and seed, across both sets.
func countMismatches(rs []record) []string {
	type key struct {
		w string
		s uint64
	}
	first := map[key]record{}
	var out []string
	for _, r := range rs {
		k := key{r.Workload, r.Seed}
		f, ok := first[k]
		if !ok {
			first[k] = r
			continue
		}
		for name, v := range r.Counts {
			if fv, ok := f.Counts[name]; ok && fv != v {
				out = append(out, fmt.Sprintf("%s seed %d: %s %d vs %d", r.Workload, r.Seed, name, fv, v))
			}
		}
		if f.Digest != r.Digest {
			out = append(out, fmt.Sprintf("%s seed %d: output digest %s vs %s", r.Workload, r.Seed, f.Digest, r.Digest))
		}
	}
	sort.Strings(out)
	return out
}

// writeVerdicts prints one row per workload and metric.
func writeVerdicts(w io.Writer, vs []verdict) {
	fmt.Fprintf(w, "%-18s %-18s %12s %12s %9s %9s %8s  %s\n",
		"workload", "metric", "base", "head", "worse", "spread", "bound", "outcome")
	for _, v := range vs {
		fmt.Fprintf(w, "%-18s %-18s %12.6g %12.6g %+8.1f%% %8.1f%% %7.0f%%  %s\n",
			v.Workload, v.Metric, v.Base.Median, v.Head.Median, 100*v.Worse,
			100*math.Max(v.Base.spread(), v.Head.spread()), 100*v.Bound, v.Outcome)
	}
}
