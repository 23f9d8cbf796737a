package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// BucketSnapshot is one cumulative histogram bucket: the number of
// observations ≤ LE.
type BucketSnapshot struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the JSON shape of one histogram. Buckets are
// cumulative in ascending bound order; the implicit +Inf bucket equals
// Count.
type HistogramSnapshot struct {
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
	Sum     int64            `json:"sum"`
	Count   int64            `json:"count"`
}

// Snapshot is the full JSON export shape of a registry. Map keys are
// metric names; encoding/json emits them sorted, so the export is
// deterministic.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for _, n := range r.names {
		name := n.name
		switch sl := &r.byID[n.id]; sl.kind {
		case counterKind:
			if s.Counters == nil {
				s.Counters = map[string]int64{}
			}
			s.Counters[name] = sl.c.v
		case gaugeKind:
			if s.Gauges == nil {
				s.Gauges = map[string]int64{}
			}
			s.Gauges[name] = sl.g.v
		case histogramKind:
			if s.Histograms == nil {
				s.Histograms = map[string]HistogramSnapshot{}
			}
			h := sl.h
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

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): a sorted `# TYPE` block per base metric name,
// histograms expanded to cumulative _bucket{le=...}/_sum/_count series.
// Output is byte-deterministic for a given registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)

	// Group instruments by family so one TYPE line covers all label
	// variants of a metric; a family has one kind (see claim).
	families := map[string][]*interned{}
	var bases []string
	for _, n := range r.names {
		base := n.base.name
		if _, ok := families[base]; !ok {
			bases = append(bases, base)
		}
		families[base] = append(families[base], n)
	}
	sort.Strings(bases)

	for _, base := range bases {
		f := families[base]
		sort.Slice(f, func(i, j int) bool { return f[i].name < f[j].name })
		fmt.Fprintf(bw, "# TYPE %s %s\n", base, r.byID[f[0].id].kind)
		for _, n := range f {
			name := n.name
			switch s := &r.byID[n.id]; s.kind {
			case counterKind:
				fmt.Fprintf(bw, "%s %d\n", name, s.c.v)
			case gaugeKind:
				fmt.Fprintf(bw, "%s %d\n", name, s.g.v)
			case histogramKind:
				h := s.h
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
