package campaign

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/durable"
)

// TestResumeJournalCoverage holds Resume's "the journal covers the
// recovered state" — taken from recovery's own fold — to what reading the
// journal again after recovery says (walCovers, NewCheckpointer's check),
// on a table of stores: matching and mismatched manifest/journal pairs
// from a halted, a completed and a re-run session, a journal from another
// plan, no manifest, and the halted journal truncated at every offset and
// with every byte flipped. Whatever the store, once its checkpoint is
// opened on that answer the journal on disk covers the recovered state, so
// no append can land after a damaged line or in place of a lost record.
func TestResumeJournalCoverage(t *testing.T) {
	// flaky fails in its first session and succeeds on the bumped seed.
	flaky := Entry{ID: "flaky", Run: func(seed uint64) Attempt {
		if seed == 3 {
			return Attempt{Attempts: 1, Err: errors.New("first session fails")}
		}
		return Attempt{Attempts: 1, Rendered: "ok\n"}
	}}
	plan := []Entry{okEntry("a"), flaky, okEntry("c"), okEntry("d")}
	type store struct{ manifest, journal []byte }
	snapshot := func(fsys mapFS) store { return store{fsys["m.json"], fsys[WALPath("m.json")]} }
	session := func(fsys mapFS, fresh bool, cfg Config) store {
		cfg.Path, cfg.FS = "m.json", fsys
		var c *Campaign
		var err error
		if fresh {
			c, err = New(cfg, plan)
		} else {
			c, err = Resume(cfg, plan)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err != nil && !errors.Is(err, ErrHalted) {
			t.Fatal(err)
		}
		return snapshot(fsys)
	}
	fsys := mapFS{}
	halted := session(fsys, true, Config{Seed: 3, HaltAfter: 2})
	failed := session(fsys, false, Config{Seed: 3})
	rerun := session(fsys, false, Config{Seed: 3})
	other := session(mapFS{}, true, Config{Seed: 4, HaltAfter: 2})

	cases := map[string]store{
		"halted":                             halted,
		"completed":                          failed,
		"re-run":                             rerun,
		"completed manifest, halted journal": {failed.manifest, halted.journal},
		"re-run manifest, older journal":     {rerun.manifest, failed.journal},
		"older manifest, re-run journal":     {failed.manifest, rerun.journal},
		"journal of another plan":            {halted.manifest, other.journal},
		"no journal":                         {halted.manifest, nil},
		"no manifest":                        {nil, rerun.journal},
	}
	for i := 0; i < len(halted.journal); i++ {
		flipped := append([]byte(nil), halted.journal...)
		flipped[i] ^= 0x20
		cases[fmt.Sprintf("journal flipped at %d", i)] = store{halted.manifest, flipped}
		cases[fmt.Sprintf("journal cut at %d", i)] = store{halted.manifest, halted.journal[:i]}
		cases[fmt.Sprintf("journal cut at %d, no manifest", i)] = store{nil, halted.journal[:i]}
	}
	covered := 0
	for name, s := range cases {
		fsys := mapFS{}
		if s.manifest != nil {
			fsys["m.json"] = s.manifest
		}
		if s.journal != nil {
			fsys[WALPath("m.json")] = s.journal
		}
		man, _, covers, err := loadRecovered(fsys, "m.json")
		if err != nil {
			continue // nothing to resume: no checkpoint is opened
		}
		d, rerr := durable.ReadLog(fsys, WALPath("m.json"))
		if want := rerr == nil && walCovers(d, man); covers != want {
			t.Fatalf("%s: recovery says the journal covers the state: %v; reading it again says %v", name, covers, want)
		}
		if covers {
			covered++
		}
		if _, err := openCheckpointer(fsys, "m.json", man, false, covers); err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if d, err := durable.ReadLog(fsys, WALPath("m.json")); err != nil || !walCovers(d, man) {
			t.Fatalf("%s: after opening, the journal does not cover the recovered state (%v)", name, err)
		}
	}
	if covered == 0 || covered == len(cases) {
		t.Fatalf("%d of %d stores covered: the table no longer tells the two answers apart", covered, len(cases))
	}
}
