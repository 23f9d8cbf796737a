package metrics

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Name is an interned metric name: a process-wide dense id for the name,
// already validated, with its family (the base name, labels stripped)
// interned beside it. A registry indexes its instruments by that id, so
// resolving a Name hashes no string. Hot sites intern their fixed names
// once, in package variables; the string-keyed Registry methods intern on
// every call. The zero Name is not a metric name.
type Name struct{ n *interned }

// interned is one entry of the intern table. It is immutable once
// published.
type interned struct {
	id   int
	name string
	// base is the name's family: the interned base name, or the entry
	// itself when the name carries no labels.
	base *interned
}

// internTab is the process-wide, append-only intern table. It holds names
// only — never values or configuration — so registries in concurrent
// campaign entries share it. Lookups of known names are lock-free; mu
// serializes the handing out of new ids.
var internTab struct {
	mu     sync.Mutex
	byName sync.Map // string → *interned
	count  atomic.Int64
}

// Intern returns name's interned form, interning it on first use. An
// invalid base name panics, as registering it would.
func Intern(name string) Name {
	if v, ok := internTab.byName.Load(name); ok {
		return Name{v.(*interned)}
	}
	internTab.mu.Lock()
	defer internTab.mu.Unlock()
	return Name{internLocked(name)}
}

// internLocked interns name (and its family base first) under internTab.mu.
func internLocked(name string) *interned {
	if v, ok := internTab.byName.Load(name); ok {
		return v.(*interned)
	}
	base, labels := SplitName(name)
	if !validBase(base) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	n := &interned{name: strings.Clone(name)}
	n.base = n
	if labels != "" {
		n.base = internLocked(base)
	}
	n.id = int(internTab.count.Load())
	internTab.byName.Store(n.name, n)
	internTab.count.Add(1)
	return n
}

// internedCount is the number of ids handed out so far; a registry sizes
// its id index to it, so one allocation covers every name known by then.
func internedCount() int { return int(internTab.count.Load()) }

// FamilyNames interns the names of a labelled counter family over a
// single label, in the order of values: names[i] is base{label="values[i]"}.
// Build a family once per package, at init; resolve it per registry with
// CounterFamily. Values are identifier-like, so quoting is plain
// concatenation.
func FamilyNames(base, label string, values ...string) []Name {
	names := make([]Name, len(values))
	for i, v := range values {
		names[i] = Intern(base + "{" + label + `="` + v + `"}`)
	}
	return names
}
