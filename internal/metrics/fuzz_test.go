package metrics

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// fuzzNames is the differential target's name pool. Each family keeps one
// kind, labelled and unlabelled variants alike: the map reference checks
// kinds per full name only, so a mixed family would diverge by design
// (TestFamilyKindCollisionPanics covers that rule).
var fuzzNames = []struct {
	name string
	kind kind
}{
	{"a_total", counterKind},
	{`a_total{k="x"}`, counterKind},
	{`a_total{k="y"}`, counterKind},
	{`b_total{k="x",j="2"}`, counterKind},
	{"level", gaugeKind},
	{`level{k="y"}`, gaugeKind},
	{"lat", histogramKind},
	{`lat{k="x"}`, histogramKind},
	{`depth{k="z"}`, histogramKind},
}

// fuzzBounds are the histogram layouts a registration picks from; two
// registries holding one histogram under different layouts make Merge
// panic.
var fuzzBounds = [][]int64{{-4, 0, 16}, {1, 100}}

// FuzzRegistryDifferential drives Registry and the map registry of
// ref_test.go through one random sequence over three registry pairs:
// get-or-create of every kind, Inc/Add/Set/Observe on the handle,
// cross-kind registrations (which must panic in both) and merges between
// registries built in different orders. Every registry must then list,
// flatten, count, total and export exactly what its reference does.
func FuzzRegistryDifferential(f *testing.F) {
	// Opcodes below merge move the handle; their parity picks the move.
	const move, moveAlt, merge, crossKind, register = 0, 1, 5, 6, 7
	// Every kind moved in registry 0; registry 1 built in another order,
	// its a_total variants out of name order and its level gauge set to
	// another value; then merged both ways and into the empty registry 2.
	f.Add([]byte{move, 0, 0, moveAlt, 3, 9, move, 4, 0xF0, moveAlt, 5, 3, move, 6, 40, move, 7, 3,
		move, 0x16, 42, register, 0x10, 0, move, 0x12, 0, moveAlt, 0x13, 7, move, 0x14, 5, move, 0x11, 1,
		merge, 0x01, 0, merge, 0x10, 0, merge, 0x20, 0})
	// Cross-kind registrations on registered and unregistered names.
	f.Add([]byte{crossKind, 0, 0, crossKind, 4, 1, move, 1, 0, crossKind, 1, 2, crossKind, 6, 0, move, 7, 200})
	// One histogram under two layouts: the merge must panic in both.
	f.Add([]byte{move, 6, 1, move, 0x16, 2, moveAlt, 5, 0x80, merge, 0x10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var regs [3]*Registry
		var refs [3]*mapRegistry
		for i := range regs {
			regs[i], refs[i] = New(), newMapRegistry()
		}
		for step, ops := 0, data; len(ops) >= 3; step, ops = step+1, ops[3:] {
			op, arg, v := ops[0]%8, ops[1], ops[2]
			i := int(arg>>4) % len(regs)
			r, ref := regs[i], refs[i]
			e := fuzzNames[int(arg&0xF)%len(fuzzNames)]
			switch op {
			case merge:
				j := int(arg&0xF) % len(regs)
				if j == i {
					continue
				}
				got, want := panics(func() { r.Merge(regs[j]) }), panics(func() { ref.Merge(refs[j]) })
				if got != want {
					t.Fatalf("step %d: Merge(%d into %d) panicked %v, reference %v", step, j, i, got, want)
				}
				if got {
					// The two merged a different prefix before panicking.
					return
				}
			case crossKind:
				fuzzRegister(r, ref, e.name, e.kind, v)
				wrong := kind(1 + (int(e.kind)+int(v%2))%3)
				got := panics(func() { fuzzRegister(r, nil, e.name, wrong, v) })
				want := panics(func() { fuzzRegister(nil, ref, e.name, wrong, v) })
				if !got || !want {
					t.Fatalf("step %d: %q as a %s panicked %v, reference %v; both must", step, e.name, wrong, got, want)
				}
			case register:
				fuzzRegister(r, ref, e.name, e.kind, v)
			default:
				fuzzRegister(r, ref, e.name, e.kind, v)
				fuzzMove(r, ref, e.name, e.kind, op%2 == 1, v)
			}
		}
		for i := range regs {
			compareRegistries(t, regs[i], refs[i])
		}
	})
}

// fuzzRegister gets or creates name as k on whichever of r and ref is
// non-nil, with bounds picked by v for a histogram.
func fuzzRegister(r *Registry, ref *mapRegistry, name string, k kind, v byte) {
	bounds := fuzzBounds[int(v)%len(fuzzBounds)]
	switch k {
	case counterKind:
		if r != nil {
			r.Counter(name)
		}
		if ref != nil {
			ref.Counter(name)
		}
	case gaugeKind:
		if r != nil {
			r.Gauge(name)
		}
		if ref != nil {
			ref.Gauge(name)
		}
	case histogramKind:
		if r != nil {
			r.Histogram(name, bounds)
		}
		if ref != nil {
			ref.Histogram(name, bounds)
		}
	}
}

// fuzzMove moves name's handle in both registries: a counter counts (Inc,
// or Add v when alt), a gauge moves (Set, or Add when alt, a signed v), a
// histogram observes a signed v.
func fuzzMove(r *Registry, ref *mapRegistry, name string, k kind, alt bool, v byte) {
	switch k {
	case counterKind:
		if !alt {
			r.Counter(name).Inc()
			ref.Counter(name).Inc()
		} else {
			r.Counter(name).Add(int64(v))
			ref.Counter(name).Add(int64(v))
		}
	case gaugeKind:
		if !alt {
			r.Gauge(name).Set(int64(int8(v)))
			ref.Gauge(name).Set(int64(int8(v)))
		} else {
			r.Gauge(name).Add(int64(int8(v)))
			ref.Gauge(name).Add(int64(int8(v)))
		}
	case histogramKind:
		r.Histogram(name, nil).Observe(int64(int8(v)))
		ref.Histogram(name, nil).Observe(int64(int8(v)))
	}
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// compareRegistries fails t unless r lists, flattens, counts, totals and
// exports exactly what ref does.
func compareRegistries(t *testing.T, r *Registry, ref *mapRegistry) {
	t.Helper()
	if got, want := r.Names(), ref.Names(); !slices.Equal(got, want) {
		t.Fatalf("Names = %q, reference %q", got, want)
	}
	if got, want := r.Flatten(), ref.Flatten(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Flatten = %v, reference %v", got, want)
	}
	if got, want := r.Counts(), ref.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Counts = %v, reference %v", got, want)
	}
	for _, e := range fuzzNames {
		base, _ := SplitName(e.name)
		if got, want := r.Total(base), ref.Total(base); got != want {
			t.Fatalf("Total(%q) = %d, reference %d", base, got, want)
		}
	}
	var got, want bytes.Buffer
	if err := r.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteJSON:\n%s\nreference:\n%s", got.String(), want.String())
	}
	got.Reset()
	want.Reset()
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("WritePrometheus:\n%s\nreference:\n%s", got.String(), want.String())
	}
}
