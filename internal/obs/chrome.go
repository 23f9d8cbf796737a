package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/durable"
)

// Log is the parsed contents of one or more span logs.
type Log struct {
	Spans []*Span
	// Dropped counts unparseable lines (a torn tail from a killed writer
	// is expected; the log is observability, not state).
	Dropped int
}

// ReadLog parses a JSONL span log. Unparseable lines are counted, not
// fatal; a missing file is an error.
func ReadLog(fs durable.FS, path string) (*Log, error) {
	if fs == nil {
		fs = durable.OS()
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read span log: %w", err)
	}
	lg := &Log{}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		s := &Span{}
		if err := json.Unmarshal(line, s); err != nil {
			lg.Dropped++
			continue
		}
		lg.Spans = append(lg.Spans, s)
	}
	return lg, nil
}

// Merge concatenates parsed logs (coordinator + workers) into one span
// set for export.
func Merge(logs ...*Log) *Log {
	out := &Log{}
	for _, lg := range logs {
		if lg == nil {
			continue
		}
		out.Spans = append(out.Spans, lg.Spans...)
		out.Dropped += lg.Dropped
	}
	return out
}

// Procs returns the distinct writing processes in the log, sorted.
func (lg *Log) Procs() []string {
	seen := map[string]bool{}
	for _, s := range lg.Spans {
		seen[s.Proc] = true
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// simPidOffset separates each process's simulated-clock track from its
// wall-clock track: process pid p renders wall spans, pid p+simPidOffset
// renders the same spans on the deterministic sim clock.
const simPidOffset = 1000

// ChromeTrace renders spans as Chrome trace-event JSON (the
// `{"traceEvents": [...]}` object format), loadable in Perfetto or
// chrome://tracing. Layout:
//
//   - One process (pid) per distinct span-log writer, named via
//     process_name metadata. A second "<proc> [sim]" process carries the
//     same spans on the simulated clock, because sim-time and wall-time
//     diverge arbitrarily and must not share an axis.
//   - Thread lanes (tid) come from span ancestry: each entry span (and
//     each first-level span without an entry ancestor, e.g. a shard
//     attempt) owns a lane, so parallel work renders side by side while
//     phases and slices nest inside their entry.
//   - Cross-process parent references (the propagated Cp-Span-Id) become
//     flow arrows from parent to child span.
//
// Wall timestamps are normalized to the earliest span so traces start at
// t=0. Output is deterministic for a given span set.
func ChromeTrace(lg *Log) ([]byte, error) {
	idx := make(map[spanKey]*Span, len(lg.Spans))
	for _, s := range lg.Spans {
		if s.Tier != TierProcess {
			idx[spanKey{s.Proc, s.ID}] = s
		}
	}

	procs := lg.Procs()
	pid := make(map[string]int, len(procs))
	for i, p := range procs {
		pid[p] = i + 1
	}

	var t0 int64
	for _, s := range lg.Spans {
		if s.Start > 0 && (t0 == 0 || s.Start < t0) {
			t0 = s.Start
		}
	}
	usWall := func(ns int64) float64 { return float64(ns-t0) / 1e3 }
	usSim := func(ns int64) float64 { return float64(ns) / 1e3 }

	// laneOf resolves a span's tid: its nearest self-or-ancestor entry
	// span, else its first-level ancestor (the child of a root), else 0
	// for roots themselves. Broken parent links degrade to own-ID lanes,
	// and so do parent cycles: an acyclic chain visits each indexed span
	// at most once, so each walk stops after len(idx)+1 steps.
	laneOf := func(s *Span) uint64 {
		cur := s
		for steps := 0; cur != nil && steps <= len(idx); steps++ {
			if cur.Tier == TierEntry {
				return cur.ID
			}
			if cur.Parent == 0 {
				if cur == s {
					return 0
				}
				break
			}
			cur = idx[spanKey{cur.Proc, cur.Parent}]
		}
		cur = s
		for steps := 0; steps <= len(idx); steps++ {
			p := idx[spanKey{cur.Proc, cur.Parent}]
			if p == nil || p.Parent == 0 {
				return cur.ID
			}
			cur = p
		}
		return s.ID
	}

	spans := make([]*Span, 0, len(lg.Spans))
	for _, s := range lg.Spans {
		if s.Tier != TierProcess {
			spans = append(spans, s)
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.ID < b.ID
	})

	var events []map[string]any
	add := func(e map[string]any) { events = append(events, e) }

	// Process + lane naming metadata. Lanes are collected first so their
	// thread_name rows precede the span events.
	hasSim := map[string]bool{}
	lanes := map[[2]uint64]string{} // {pid, tid} -> name
	for _, s := range spans {
		if s.SimStart != 0 || s.SimEnd != 0 {
			hasSim[s.Proc] = true
		}
		tid := laneOf(s)
		k := [2]uint64{uint64(pid[s.Proc]), tid}
		if _, ok := lanes[k]; !ok {
			name := "main"
			if tid != 0 {
				if lane := idx[spanKey{s.Proc, tid}]; lane != nil {
					name = lane.Name
				} else {
					name = fmt.Sprintf("lane %d", tid)
				}
			}
			lanes[k] = name
		}
	}
	for _, p := range procs {
		add(map[string]any{"ph": "M", "name": "process_name", "pid": pid[p], "tid": 0,
			"args": map[string]any{"name": p}})
		if hasSim[p] {
			add(map[string]any{"ph": "M", "name": "process_name", "pid": pid[p] + simPidOffset, "tid": 0,
				"args": map[string]any{"name": p + " [sim]"}})
		}
	}
	laneKeys := make([][2]uint64, 0, len(lanes))
	for k := range lanes {
		laneKeys = append(laneKeys, k)
	}
	sort.Slice(laneKeys, func(i, j int) bool {
		if laneKeys[i][0] != laneKeys[j][0] {
			return laneKeys[i][0] < laneKeys[j][0]
		}
		return laneKeys[i][1] < laneKeys[j][1]
	})
	for _, k := range laneKeys {
		add(map[string]any{"ph": "M", "name": "thread_name", "pid": k[0], "tid": k[1],
			"args": map[string]any{"name": lanes[k]}})
	}

	flowID := 0
	for _, s := range spans {
		p, tid := pid[s.Proc], laneOf(s)
		args := map[string]any{"trace": s.Trace, "span": s.ID}
		for k, v := range s.Attrs {
			args[k] = v
		}
		if s.Tier == TierMark {
			add(map[string]any{"ph": "i", "s": "t", "name": s.Name, "cat": s.Tier,
				"pid": p, "tid": tid, "ts": usWall(s.Start), "args": args})
		} else {
			dur := float64(s.End-s.Start) / 1e3
			if dur < 0 {
				dur = 0
			}
			add(map[string]any{"ph": "X", "name": s.Name, "cat": s.Tier,
				"pid": p, "tid": tid, "ts": usWall(s.Start), "dur": dur, "args": args})
		}
		if s.SimStart != 0 || s.SimEnd != 0 {
			simDur := float64(s.SimEnd-s.SimStart) / 1e3
			if simDur < 0 {
				simDur = 0
			}
			ph := "X"
			e := map[string]any{"ph": ph, "name": s.Name, "cat": s.Tier,
				"pid": p + simPidOffset, "tid": tid, "ts": usSim(s.SimStart), "dur": simDur, "args": args}
			if s.Tier == TierMark {
				e["ph"] = "i"
				e["s"] = "t"
				delete(e, "dur")
			}
			add(e)
		}
		// Stitch cross-process lineage with a flow arrow when the remote
		// parent is present in the merged log.
		if s.ParentRef != "" {
			if par := findRef(idx, s.ParentRef); par != nil {
				flowID++
				pp, ptid := pid[par.Proc], laneOf(par)
				ts := usWall(s.Start)
				add(map[string]any{"ph": "s", "id": flowID, "name": "propagate", "cat": "link",
					"pid": pp, "tid": ptid, "ts": ts})
				add(map[string]any{"ph": "f", "bp": "e", "id": flowID, "name": "propagate", "cat": "link",
					"pid": p, "tid": tid, "ts": ts})
			}
		}
	}

	out := map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}
	return json.MarshalIndent(out, "", " ")
}

// spanKey indexes spans by (writing process, span ID) — the coordinate
// system Cp-Span-Id references use.
type spanKey struct {
	proc string
	id   uint64
}

// findRef resolves a "proc:id" reference against the merged span index.
func findRef(idx map[spanKey]*Span, ref string) *Span {
	i := lastColon(ref)
	if i < 0 {
		return nil
	}
	var id uint64
	for _, c := range ref[i+1:] {
		if c < '0' || c > '9' {
			return nil
		}
		id = id*10 + uint64(c-'0')
	}
	return idx[spanKey{ref[:i], id}]
}

func lastColon(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ':' {
			return i
		}
	}
	return -1
}
