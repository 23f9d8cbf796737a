// Package metrics is the simulation's telemetry spine: a deterministic,
// allocation-light registry of named counters, gauges and histograms that
// every layer (kern, the schedulers, the microarchitectural models, the
// attack code, campaigns) reports into.
//
// Design rules, in priority order:
//
//   - Zero-cost when disabled. A nil *Registry hands out nil instrument
//     handles, and every instrument method is a no-op on a nil receiver, so
//     an uninstrumented hot path costs exactly one predictable branch.
//   - Never feed back into the simulation. Instruments are write-only from
//     the simulation's point of view: no simulation code path may branch on
//     a metric value. Golden traces must stay byte-identical with metrics
//     on or off (repro's TestMetricsSideEffectFree enforces this).
//   - Deterministic exports. Snapshots render instruments in sorted name
//     order, so two runs with the same seed produce byte-identical
//     Prometheus text and JSON.
//
// Metric names follow the Prometheus convention, optionally carrying a
// fixed label set inline: "kern_sched_out_total{reason=\"blocked\"}".
// Instruments are get-or-create: requesting the same name twice returns the
// same instrument, which is how per-core model instances share one
// machine-wide counter.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Counter is a monotonically increasing int64. The nil Counter is a valid
// no-op instrument.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n (n must be non-negative; this is not checked on the hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a settable int64 level. The nil Gauge is a valid no-op
// instrument.
type Gauge struct{ v int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add shifts the level by n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v += n
	}
}

// Value returns the current level (0 for the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts int64 observations into fixed upper-bound buckets (an
// implicit +Inf bucket catches the rest). Observations are simulation
// quantities — sim-time durations in nanoseconds, queue depths, vruntime
// gaps — never wall-clock values. The nil Histogram is a valid no-op
// instrument.
type Histogram struct {
	bounds []int64 // ascending upper bounds (inclusive)
	counts []int64 // len(bounds)+1; last is +Inf
	sum    int64
	n      int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Common bucket layouts.
var (
	// DurationBuckets covers sim-time durations in nanoseconds, 100ns–100ms.
	DurationBuckets = []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}
	// DepthBuckets covers small occupancy counts (runqueue depths).
	DepthBuckets = []int64{0, 1, 2, 4, 8, 16, 32}
)

// Registry is one telemetry namespace. It is not safe for concurrent use:
// like the simulation kernel it serves, it assumes a single driving
// goroutine (or externally sequenced access, as the campaign runner
// provides).
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	kind     map[string]string
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		kind:     map[string]string{},
	}
}

// Instrumented is implemented by model components that can wire themselves
// into a registry (schedulers, caches, cores).
type Instrumented interface {
	InstrumentMetrics(*Registry)
}

// claim validates the name and records its instrument kind, panicking on a
// cross-kind collision (a programming error: two layers registered the same
// name as different instrument types).
func (r *Registry) claim(name, kind string) {
	base, _ := SplitName(name)
	if !validBase(base) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	if prev, ok := r.kind[name]; ok && prev != kind {
		panic(fmt.Sprintf("metrics: %q already registered as a %s, not a %s", name, prev, kind))
	}
	r.kind[name] = kind
}

// Counter returns (creating on first use) the named counter. A nil registry
// returns a nil, no-op instrument.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.claim(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// FamilyNames builds the names of a labelled counter family over a single
// label, in the order of values: names[i] is base{label="values[i]"}.
// Build a family once per package, at init; resolve it per registry with
// CounterFamily. Values are identifier-like, so quoting is plain
// concatenation.
func FamilyNames(base, label string, values ...string) []string {
	names := make([]string, len(values))
	for i, v := range values {
		names[i] = base + "{" + label + `="` + v + `"}`
	}
	return names
}

// CounterFamily resolves one counter per family name (see FamilyNames)
// into fam, in order. Hot sites resolve the family once per machine (and
// per pool fork) and index it with an enum — no label formatting, map
// lookup or allocation per event (the kernel's per-kind event counters and
// the cache's per-level access counters work this way). A nil registry
// fills fam with nil, no-op handles, so the disabled path stays indexable
// and zero-cost.
func (r *Registry) CounterFamily(fam []*Counter, names []string) {
	for i, name := range names {
		fam[i] = r.Counter(name)
	}
}

// Gauge returns (creating on first use) the named gauge. A nil registry
// returns a nil, no-op instrument.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.claim(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating on first use) the named histogram with the
// given ascending upper bounds; later calls reuse the first bounds. A nil
// registry returns a nil, no-op instrument.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.claim(name, "histogram")
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	out := make([]string, 0, len(r.kind))
	for name := range r.kind {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Total sums every counter whose base name (labels stripped) equals base —
// e.g. Total("kern_events_total") aggregates over all event kinds.
func (r *Registry) Total(base string) int64 {
	if r == nil {
		return 0
	}
	var t int64
	for name, c := range r.counters {
		if b, _ := SplitName(name); b == base {
			t += c.v
		}
	}
	return t
}

// Flatten renders counters and gauges verbatim plus each histogram's _sum
// and _count, as a plain name→value map — the shape embedded in campaign
// manifests (Go's JSON encoder emits map keys sorted, keeping manifests
// byte-stable). A nil or empty registry returns nil.
func (r *Registry) Flatten() map[string]int64 {
	if r == nil || len(r.kind) == 0 {
		return nil
	}
	out := make(map[string]int64, len(r.counters)+len(r.gauges)+2*len(r.hists))
	for name, c := range r.counters {
		out[name] = c.v
	}
	for name, g := range r.gauges {
		out[name] = g.v
	}
	for name, h := range r.hists {
		out[Suffixed(name, "_sum")] = h.sum
		out[Suffixed(name, "_count")] = h.n
	}
	return out
}

// Counts returns the registry's non-zero values, keyed like Flatten — the
// delta since an empty registry, Delta(nil, r.Flatten()), in one pass. It
// returns nil when every value is zero.
func (r *Registry) Counts() map[string]int64 {
	var out map[string]int64
	add := func(name string, v int64) {
		if v != 0 {
			if out == nil {
				out = map[string]int64{}
			}
			out[name] = v
		}
	}
	if r == nil {
		return nil
	}
	for name, c := range r.counters {
		add(name, c.v)
	}
	for name, g := range r.gauges {
		add(name, g.v)
	}
	for name, h := range r.hists {
		add(Suffixed(name, "_sum"), h.sum)
		add(Suffixed(name, "_count"), h.n)
	}
	return out
}

// Delta returns after−before per key, keeping keys present in either map
// and dropping zero deltas. Both maps are Flatten outputs.
func Delta(before, after map[string]int64) map[string]int64 {
	if len(after) == 0 && len(before) == 0 {
		return nil
	}
	out := map[string]int64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	for k, v := range before {
		if _, ok := after[k]; !ok && v != 0 {
			out[k] = -v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// SplitName separates a metric name into its base and its inline label set
// (including the braces; empty when unlabelled).
func SplitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// Suffixed appends suffix to the base name, keeping the label set in place:
// Suffixed(`x_total{k="v"}`, "_sum") = `x_total_sum{k="v"}`.
func Suffixed(name, suffix string) string {
	base, labels := SplitName(name)
	return base + suffix + labels
}

// withLabel merges one extra label into the name's label set.
func withLabel(name, label string) string {
	base, labels := SplitName(name)
	if labels == "" {
		return base + "{" + label + "}"
	}
	return base + "{" + labels[1:len(labels)-1] + "," + label + "}"
}

// validBase checks a Prometheus-compatible base metric name.
func validBase(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
