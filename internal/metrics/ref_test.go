package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// mapRegistry is the registry before metric names were interned: four
// string-keyed maps, one per instrument kind plus the kind of every name,
// and a kind check per full name only. FuzzRegistryDifferential holds
// Registry to it: over name pools that keep each family to one kind, both
// must register, merge and export the same instruments and render the same
// bytes.
type mapRegistry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	kind     map[string]string
}

func newMapRegistry() *mapRegistry {
	return &mapRegistry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		kind:     map[string]string{},
	}
}

func (r *mapRegistry) claim(name, kind string) {
	base, _ := SplitName(name)
	if !validBase(base) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	if prev, ok := r.kind[name]; ok && prev != kind {
		panic(fmt.Sprintf("metrics: %q already registered as a %s, not a %s", name, prev, kind))
	}
	r.kind[name] = kind
}

func (r *mapRegistry) Counter(name string) *Counter {
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

func (r *mapRegistry) Gauge(name string) *Gauge {
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

func (r *mapRegistry) Histogram(name string, bounds []int64) *Histogram {
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

func (r *mapRegistry) Merge(src *mapRegistry) {
	if r == nil || src == nil {
		return
	}
	for name, c := range src.counters {
		r.Counter(name).Add(c.v)
	}
	for name, g := range src.gauges {
		r.Gauge(name).Set(g.v)
	}
	for name, h := range src.hists {
		dst := r.Histogram(name, h.bounds)
		if !slices.Equal(dst.bounds, h.bounds) {
			panic(fmt.Sprintf("metrics: histogram %q merged with different bounds", name))
		}
		for i, n := range h.counts {
			dst.counts[i] += n
		}
		dst.sum += h.sum
		dst.n += h.n
	}
}

func (r *mapRegistry) Names() []string {
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

func (r *mapRegistry) Total(base string) int64 {
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

func (r *mapRegistry) Flatten() map[string]int64 {
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

func (r *mapRegistry) Counts() map[string]int64 {
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

func (r *mapRegistry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.v
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.v
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{Sum: h.sum, Count: h.n}
			cum := int64(0)
			for i, b := range h.bounds {
				cum += h.counts[i]
				hs.Buckets = append(hs.Buckets, BucketSnapshot{LE: b, Count: cum})
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

func (r *mapRegistry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func (r *mapRegistry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)

	type family struct {
		kind  string
		names []string
	}
	families := map[string]*family{}
	var bases []string
	for name, kind := range r.kind {
		base, _ := SplitName(name)
		f, ok := families[base]
		if !ok {
			f = &family{kind: kind}
			families[base] = f
			bases = append(bases, base)
		}
		f.names = append(f.names, name)
	}
	sort.Strings(bases)

	for _, base := range bases {
		f := families[base]
		sort.Strings(f.names)
		fmt.Fprintf(bw, "# TYPE %s %s\n", base, f.kind)
		for _, name := range f.names {
			switch f.kind {
			case "counter":
				fmt.Fprintf(bw, "%s %d\n", name, r.counters[name].v)
			case "gauge":
				fmt.Fprintf(bw, "%s %d\n", name, r.gauges[name].v)
			case "histogram":
				h := r.hists[name]
				cum := int64(0)
				for i, b := range h.bounds {
					cum += h.counts[i]
					fmt.Fprintf(bw, "%s %d\n", withLabel(Suffixed(name, "_bucket"), fmt.Sprintf("le=%q", fmt.Sprint(b))), cum)
				}
				fmt.Fprintf(bw, "%s %d\n", withLabel(Suffixed(name, "_bucket"), `le="+Inf"`), h.n)
				fmt.Fprintf(bw, "%s %d\n", Suffixed(name, "_sum"), h.sum)
				fmt.Fprintf(bw, "%s %d\n", Suffixed(name, "_count"), h.n)
			}
		}
	}
	return bw.Flush()
}
