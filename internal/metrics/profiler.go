package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Profiler attributes wall-clock cost to simulation activity per kernel
// event type (what kind of work is expensive); per-machine attribution is
// the obs machine-tier span exps.Env.NewMachine opens. It is the one piece
// of telemetry allowed to read the host clock — strictly for attribution,
// never fed back into simulation state. A nil *Profiler is a valid no-op,
// and the kernel only touches the clock when a profiler is attached, so the
// disabled path costs a single branch per event.
type Profiler struct {
	events map[string]*lane
}

type lane struct {
	n    int64
	wall time.Duration
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{events: map[string]*lane{}}
}

// Observe attributes d of wall-clock time to one simulated event of the
// given kind.
func (p *Profiler) Observe(kind string, d time.Duration) {
	if p == nil {
		return
	}
	l, ok := p.events[kind]
	if !ok {
		l = &lane{}
		p.events[kind] = l
	}
	l.n++
	l.wall += d
}

// Merge adds src's lanes into p, as if src's events had been observed on
// p. A nil src or p is a no-op.
func (p *Profiler) Merge(src *Profiler) {
	if p == nil || src == nil {
		return
	}
	for kind, l := range src.events {
		dst, ok := p.events[kind]
		if !ok {
			dst = &lane{}
			p.events[kind] = dst
		}
		dst.n += l.n
		dst.wall += l.wall
	}
}

// ProfileRow is one attribution lane in a report.
type ProfileRow struct {
	Key        string  `json:"key"`
	Events     int64   `json:"events"`
	WallNS     int64   `json:"wall_ns"`
	NSPerEvent float64 `json:"ns_per_event"`
}

// ProfileReport is the exported shape of a profiler. ByEvent is key-sorted
// so the JSON row order is deterministic run to run — wall times are
// host-dependent, and sorting by them would shuffle rows across
// otherwise-identical runs. WriteText re-sorts a display copy by cost,
// where "most expensive first" is worth the instability.
type ProfileReport struct {
	ByEvent      []ProfileRow `json:"by_event"`
	TotalEvents  int64        `json:"total_events"`
	TotalWallNS  int64        `json:"total_wall_ns"`
	EventsPerSec float64      `json:"events_per_sec"`
}

// Report aggregates the profiler into a deterministic-ordered report.
// (The wall-time values themselves are host-dependent, of course.)
func (p *Profiler) Report() ProfileReport {
	var rep ProfileReport
	if p == nil {
		return rep
	}
	rep.ByEvent = make([]ProfileRow, 0, len(p.events))
	for key, l := range p.events {
		rep.ByEvent = append(rep.ByEvent, ProfileRow{Key: key, Events: l.n, WallNS: int64(l.wall),
			NSPerEvent: float64(l.wall) / float64(l.n)})
		rep.TotalEvents += l.n
		rep.TotalWallNS += int64(l.wall)
	}
	sort.Slice(rep.ByEvent, func(i, j int) bool { return rep.ByEvent[i].Key < rep.ByEvent[j].Key })
	if rep.TotalWallNS > 0 {
		rep.EventsPerSec = float64(rep.TotalEvents) / (float64(rep.TotalWallNS) / 1e9)
	}
	return rep
}

// WriteJSON writes the report as indented JSON.
func (rep ProfileReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText writes a human-readable report: totals, then the event kinds
// most expensive first.
func (rep ProfileReport) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "profile: %d events, %.3f ms wall, %.0f events/sec\n",
		rep.TotalEvents, float64(rep.TotalWallNS)/1e6, rep.EventsPerSec)
	// Humans want the expensive kinds on top; sort a copy so the report
	// value itself keeps its deterministic key order.
	byCost := append([]ProfileRow(nil), rep.ByEvent...)
	sort.Slice(byCost, func(i, j int) bool {
		if byCost[i].WallNS != byCost[j].WallNS {
			return byCost[i].WallNS > byCost[j].WallNS
		}
		return byCost[i].Key < byCost[j].Key
	})
	if len(byCost) > 0 {
		fmt.Fprintf(bw, "\n%-28s %12s %14s %12s\n", "by event kind", "events", "wall(ms)", "ns/event")
	}
	for _, r := range byCost {
		fmt.Fprintf(bw, "%-28s %12d %14.3f %12.1f\n",
			r.Key, r.Events, float64(r.WallNS)/1e6, r.NSPerEvent)
	}
	return bw.Flush()
}
