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
// machine-wide counter. Every label variant of a family (the base name
// before '{') is one kind: a name can never be claimed as two kinds, nor a
// family as two.
//
// Names are interned process-wide (Intern, FamilyNames): each gets a dense
// id, validated once, and a registry keeps its instruments in a slice
// indexed by that id. Hot sites intern their fixed names once per process,
// in package variables, and resolve them with CounterOf, HistogramOf and
// CounterFamily, so wiring a machine into a fresh registry hashes no
// string, takes no lock and allocates per registry, not per name. The
// string-keyed Counter, Gauge and Histogram intern on each call. Ids never
// reach an export.
package metrics

import (
	"fmt"
	"slices"
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
//
// Instruments are found by interned name id (see Name), not by hashing:
// byID holds, per id, the instrument registered under that name and, for
// a family's base name, the kind the family is registered as. Ids follow
// process-wide intern order, so no export reads them: every export sorts
// by name.
type Registry struct {
	byID  []slot
	names []*interned // registered names, in registration order
	slab  []Counter   // the chunk new counters are carved from
}

// slot is one name id's entry in a registry: the instrument registered
// under the name (the pointer of its kind is set), and the kind of the
// family the name is the base of.
type slot struct {
	c      *Counter
	g      *Gauge
	h      *Histogram
	kind   kind
	family kind
}

type kind uint8

const (
	noKind kind = iota
	counterKind
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	return [...]string{"none", "counter", "gauge", "histogram"}[k]
}

// counterSlab is how many counters one slab chunk holds, and the initial
// capacity of a registry's name list: enough for a pooled 16-core
// machine's whole handle set.
const counterSlab = 64

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Instrumented is implemented by model components that can wire themselves
// into a registry (schedulers, caches, cores).
type Instrumented interface {
	InstrumentMetrics(*Registry)
}

// slot returns n's slot, or nil when no name of n's id or above is
// registered.
func (r *Registry) slot(n *interned) *slot {
	if n.id < len(r.byID) {
		return &r.byID[n.id]
	}
	return nil
}

// claim registers n as a k and returns its slot for the caller to fill,
// panicking when n's family is already registered as another kind (a
// programming error: two layers registered one family as different
// instrument types). Every label variant of a family shares the family's
// kind, so one Prometheus TYPE line covers them; a name registered as
// another kind is such a clash too, since the name is in its own family.
func (r *Registry) claim(n *interned, k kind) *slot {
	if n.id >= len(r.byID) {
		// Cover every id handed out so far; append amortizes the growth
		// when names are interned one by one as they register.
		r.byID = append(r.byID, make([]slot, max(internedCount(), n.id+1)-len(r.byID))...)
	}
	fam := &r.byID[n.base.id].family
	if *fam != noKind && *fam != k {
		if n.base == n {
			panic(fmt.Sprintf("metrics: %q already registered as a %s, not a %s", n.name, *fam, k))
		}
		panic(fmt.Sprintf("metrics: %q: family %q already registered as a %s, not a %s", n.name, n.base.name, *fam, k))
	}
	*fam = k
	if r.names == nil {
		r.names = make([]*interned, 0, counterSlab)
	}
	r.names = append(r.names, n)
	s := &r.byID[n.id]
	s.kind = k
	return s
}

// Counter returns (creating on first use) the named counter. A nil registry
// returns a nil, no-op instrument.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.CounterOf(Intern(name))
}

// CounterOf is Counter for an interned name.
func (r *Registry) CounterOf(n Name) *Counter {
	if r == nil {
		return nil
	}
	if s := r.slot(n.n); s != nil && s.c != nil {
		return s.c
	}
	s := r.claim(n.n, counterKind)
	if len(r.slab) == cap(r.slab) {
		r.slab = make([]Counter, 0, counterSlab)
	}
	r.slab = r.slab[:len(r.slab)+1]
	s.c = &r.slab[len(r.slab)-1]
	return s.c
}

// CounterFamily resolves one counter per family name (see FamilyNames)
// into fam, in order. Hot sites resolve the family once per machine (and
// per pool fork) and index it with an enum — no label formatting, name
// hashing or allocation per event (the kernel's per-kind event counters and
// the cache's per-level access counters work this way). A nil registry
// fills fam with nil, no-op handles, so the disabled path stays indexable
// and zero-cost.
func (r *Registry) CounterFamily(fam []*Counter, names []Name) {
	for i, n := range names {
		fam[i] = r.CounterOf(n)
	}
}

// Gauge returns (creating on first use) the named gauge. A nil registry
// returns a nil, no-op instrument.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.gauge(Intern(name).n)
}

// gauge is Gauge for an interned name: no hot site resolves a gauge, so
// unlike CounterOf and HistogramOf it is not exported.
func (r *Registry) gauge(n *interned) *Gauge {
	if s := r.slot(n); s != nil && s.g != nil {
		return s.g
	}
	s := r.claim(n, gaugeKind)
	s.g = &Gauge{}
	return s.g
}

// Histogram returns (creating on first use) the named histogram with the
// given ascending upper bounds; later calls reuse the first bounds. A nil
// registry returns a nil, no-op instrument.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramOf(Intern(name), bounds)
}

// HistogramOf is Histogram for an interned name.
func (r *Registry) HistogramOf(n Name, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	if s := r.slot(n.n); s != nil && s.h != nil {
		return s.h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", n.n.name))
		}
	}
	s := r.claim(n.n, histogramKind)
	// Bounds and bucket counts share one backing array.
	buf := make([]int64, 2*len(bounds)+1)
	copy(buf, bounds)
	s.h = &Histogram{bounds: buf[:len(bounds):len(bounds)], counts: buf[len(bounds):]}
	return s.h
}

// Merge adds src's instruments into r, as if every observation src saw had
// been made on r directly: counters and histogram buckets, sums and counts
// add, and a gauge — a level, not a tally — takes src's value. Instruments
// src registered but never moved are registered on r too, so r's Flatten
// keys match a run that used r throughout. A family src and r register as
// different kinds panics, as registering it on r would; so do histograms
// of one name with different bounds. A nil src or r is a no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for _, n := range src.names {
		s := &src.byID[n.id]
		switch s.kind {
		case counterKind:
			r.CounterOf(Name{n}).Add(s.c.v)
		case gaugeKind:
			r.gauge(n).Set(s.g.v)
		case histogramKind:
			h := s.h
			dst := r.HistogramOf(Name{n}, h.bounds)
			if !slices.Equal(dst.bounds, h.bounds) {
				panic(fmt.Sprintf("metrics: histogram %q merged with different bounds", n.name))
			}
			for i, c := range h.counts {
				dst.counts[i] += c
			}
			dst.sum += h.sum
			dst.n += h.n
		}
	}
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.names))
	for i, n := range r.names {
		out[i] = n.name
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
	for _, n := range r.names {
		if s := &r.byID[n.id]; s.kind == counterKind && n.base.name == base {
			t += s.c.v
		}
	}
	return t
}

// each calls f with every value Flatten renders: counters and gauges
// verbatim, and each histogram's _sum and _count.
func (r *Registry) each(f func(name string, v int64)) {
	for _, n := range r.names {
		switch s := &r.byID[n.id]; s.kind {
		case counterKind:
			f(n.name, s.c.v)
		case gaugeKind:
			f(n.name, s.g.v)
		case histogramKind:
			f(Suffixed(n.name, "_sum"), s.h.sum)
			f(Suffixed(n.name, "_count"), s.h.n)
		}
	}
}

// Flatten renders counters and gauges verbatim plus each histogram's _sum
// and _count, as a plain name→value map — the shape embedded in campaign
// manifests (Go's JSON encoder emits map keys sorted, keeping manifests
// byte-stable). A nil or empty registry returns nil.
func (r *Registry) Flatten() map[string]int64 {
	if r == nil || len(r.names) == 0 {
		return nil
	}
	out := make(map[string]int64, len(r.names))
	r.each(func(name string, v int64) { out[name] = v })
	return out
}

// Counts returns the registry's non-zero values, keyed like Flatten — the
// delta since an empty registry, Delta(nil, r.Flatten()), in one pass. It
// returns nil when every value is zero.
func (r *Registry) Counts() map[string]int64 {
	if r == nil {
		return nil
	}
	var out map[string]int64
	r.each(func(name string, v int64) {
		if v != 0 {
			if out == nil {
				out = map[string]int64{}
			}
			out[name] = v
		}
	})
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
