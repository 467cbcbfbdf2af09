package remap

// Growth on the warm path: edits that only ADD hosts must not force a
// full re-map. New nodes append to the graph, the machine's packed tie
// keys are re-based onto the new snapshot (mapper.RebaseGrow), and the
// new hosts warm-map as ordinary never-reached labels — byte-identical
// to a fresh run, at incremental cost.

import (
	"fmt"
	"strings"
	"testing"

	"pathalias/internal/mapgen"
)

// addHostEdits is a sequence of add-only edits, each appended to the
// first input file: every one grows the node set and none removes or
// flips anything, so every one must map warm.
var addHostEdits = []string{
	"\nwarmadd0\thost1(DAILY)\n",                 // leaf host hanging off an existing one
	"\nhost2\twarmadd1(HOURLY)\n",                // new host referenced as a link destination
	"\nwarmadd2\twarmadd0(DEMAND), host3\n",      // chains onto a previously added host
	"\nwarmnet = {warmadd0, warmadd2}(WEEKLY)\n", // new network hub over new hosts
	"\nwarmadd3\twarmadd3x!(POLLED)\n",           // two new hosts in one statement
}

func appendToFirst(inputs []Input, add string) []Input {
	out := make([]Input, len(inputs))
	copy(out, inputs)
	out[0].Src += add
	return out
}

// TestEngineHostAddWarm asserts the single-vantage warm path: a
// host-add edit neither bumps FullRemaps nor diverges from a fresh run.
func TestEngineHostAddWarm(t *testing.T) {
	cfg := mapgen.Small()
	cfg.Seed = 5
	cfg.CoreFiles = 3
	pins, local := mapgen.Generate(cfg)
	opts := Options{LocalHost: local, Workers: 2}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	inputs := toInputs(pins)
	res, err := update(m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, opts, inputs, res, "initial")
	fullRemaps := m.Stats().FullRemaps

	for i, add := range addHostEdits {
		inputs = appendToFirst(inputs, add)
		res, err = update(m, inputs)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if !res.Incremental {
			t.Fatalf("edit %d (%q): host add took the full re-map path", i, add)
		}
		if m.Stats().FullRemaps != fullRemaps {
			t.Fatalf("edit %d (%q): FullRemaps bumped %d -> %d", i, add, fullRemaps, m.Stats().FullRemaps)
		}
		if m.Stats().TailApplies != i+1 {
			t.Fatalf("edit %d (%q): appended edit did not tail-apply (TailApplies=%d, want %d)",
				i, add, m.Stats().TailApplies, i+1)
		}
		checkEquivalent(t, opts, inputs, res, fmt.Sprintf("add edit %d", i))
	}

	// A host REMOVAL flips deletions or rebuilds the journal: the next
	// update must fall back to a full re-map and still match.
	inputs = appendToFirst(inputs, "\ndelete {warmadd0}\n")
	res, err = update(m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, opts, inputs, res, "delete after adds")
}

// TestMultiHostAddWarm asserts the same across a shared-state Multi:
// every resident vantage re-maps warm on a host-add edit.
func TestMultiHostAddWarm(t *testing.T) {
	cfg := mapgen.Small()
	cfg.Seed = 9
	cfg.CoreFiles = 3
	pins, local := mapgen.Generate(cfg)
	opts := Options{LocalHost: local, Workers: 2}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	vantages := []string{local, "host0", "host3"}

	inputs := toInputs(pins)
	if err := m.Update(inputs); err != nil {
		t.Fatal(err)
	}
	for _, host := range vantages {
		checkVantage(t, m, opts, inputs, host, "initial")
	}
	fullRemaps := m.Stats().FullRemaps

	for i, add := range addHostEdits {
		inputs = appendToFirst(inputs, add)
		if err := m.Update(inputs); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		for _, host := range vantages {
			res, err := m.ResultFor(host)
			if err != nil {
				t.Fatalf("edit %d [%s]: %v", i, host, err)
			}
			if !res.Incremental {
				t.Fatalf("edit %d [%s] (%q): host add took the full re-map path", i, host, add)
			}
			checkVantage(t, m, opts, inputs, host, fmt.Sprintf("add edit %d", i))
		}
		if got := m.Stats().FullRemaps; got != fullRemaps {
			t.Fatalf("edit %d (%q): FullRemaps bumped %d -> %d", i, add, fullRemaps, got)
		}
		if got := m.Stats().TailApplies; got != i+1 {
			t.Fatalf("edit %d (%q): appended edit did not tail-apply (TailApplies=%d, want %d)",
				i, add, got, i+1)
		}
	}
}

// TestTailApplyPrivateScope locks down the subtlest part of the append
// fast path: private bindings. A tail replayed on top of the cached
// prefix's journal must resolve names in exactly the scope a full
// replay reaches at the cut — references after a prefix `private`
// bind to the file's private node, and a `private` declared IN the
// tail affects only subsequent references, both byte-identical to a
// fresh run.
func TestTailApplyPrivateScope(t *testing.T) {
	inputs := []Input{
		{Name: "a.map", Src: "alpha\tbeta(DAILY), gamma(HOURLY)\nprivate {gamma}\ngamma\tdelta(DEMAND)\n"},
		{Name: "b.map", Src: "beta\tgamma(WEEKLY)\ndelta\talpha(DAILY), gamma(POLLED)\n"},
	}
	opts := Options{LocalHost: "alpha"}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := update(m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, opts, inputs, res, "initial")

	tailEdits := []string{
		// Reference to gamma in the tail: must bind to a.map's private
		// gamma (declared in the cached prefix), not the global one.
		"\nepsilon\tgamma(DAILY)\n",
		// The private node itself grows a link to a brand-new host.
		"\ngamma\tzeta(DEMAND*2)\n",
		// A private declared in the tail: prefix references to beta
		// stay global, the tail's own reference goes private.
		"\nprivate {beta}\nbeta\teta(HOURLY)\n",
	}
	for i, add := range tailEdits {
		inputs = appendToFirst(inputs, add)
		res, err = update(m, inputs)
		if err != nil {
			t.Fatalf("tail edit %d: %v", i, err)
		}
		if !res.Incremental {
			t.Fatalf("tail edit %d (%q): add-only edit took the full re-map path", i, add)
		}
		if m.Stats().TailApplies != i+1 {
			t.Fatalf("tail edit %d (%q): did not tail-apply (TailApplies=%d, want %d)",
				i, add, m.Stats().TailApplies, i+1)
		}
		checkEquivalent(t, opts, inputs, res, fmt.Sprintf("tail edit %d", i))
	}
	tails := m.Stats().TailApplies

	// A mid-file modification is not an extension: the engine must fall
	// back to undo-and-reapply (file a.map has privates, so the undo-first
	// ordering applies) and still match a fresh run.
	mod := make([]Input, len(inputs))
	copy(mod, inputs)
	mod[0].Src = strings.Replace(mod[0].Src, "beta(DAILY)", "beta(WEEKLY)", 1)
	inputs = mod
	res, err = update(m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().TailApplies != tails {
		t.Fatalf("modified prefix tail-applied (TailApplies=%d, want %d)", m.Stats().TailApplies, tails)
	}
	checkEquivalent(t, opts, inputs, res, "prefix modification")

	// Truncation is not an extension either.
	trunc := make([]Input, len(inputs))
	copy(trunc, inputs)
	trunc[0].Src = strings.TrimSuffix(trunc[0].Src, "beta\teta(HOURLY)\n")
	inputs = trunc
	res, err = update(m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().TailApplies != tails {
		t.Fatalf("truncated file tail-applied (TailApplies=%d, want %d)", m.Stats().TailApplies, tails)
	}
	checkEquivalent(t, opts, inputs, res, "truncation")
}
