package remap

// Growth on the warm path: edits that only ADD hosts must not force a
// full re-map. New nodes append to the graph, the machine's packed tie
// keys are re-based onto the new snapshot (mapper.RebaseGrow), and the
// new hosts warm-map as ordinary never-reached labels — byte-identical
// to a fresh run, at incremental cost.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pathalias/internal/mapgen"
	"pathalias/internal/parser"
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

// stmtCount returns the number of replayable statements in src.
func stmtCount(src string) int {
	return parser.ScanFragment(parser.Options{}, parser.Input{Name: "count", Src: src}).Stmts()
}

// checkTailPatched asserts that the last update patched exactly one
// file by statement range, replaying only the appended statements of
// add: nothing of the cached prefix was undone or re-applied.
func checkTailPatched(t *testing.T, m *Multi, patchesBefore int, add, label string) {
	t.Helper()
	if got := m.Stats().RangePatches; got != patchesBefore+1 {
		t.Fatalf("%s (%q): appended edit was not range-patched (RangePatches=%d, want %d)",
			label, add, got, patchesBefore+1)
	}
	if got, want := m.Timing().StmtsReplayed, stmtCount(add); got != want {
		t.Fatalf("%s (%q): StmtsReplayed=%d, want only the %d appended statements", label, add, got, want)
	}
}

// TestEngineHostAddWarm asserts the single-vantage warm path: a
// host-add edit neither bumps FullRemaps nor diverges from a fresh run.
func TestEngineHostAddWarm(t *testing.T) {
	cfg := mapgen.Small()
	cfg.Seed = 5
	cfg.CoreFiles = 3
	pins, local := mapgen.Generate(cfg)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	opts := Options{LocalHost: local}
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
		patches := m.Stats().RangePatches
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
		checkTailPatched(t, m, patches, add, fmt.Sprintf("edit %d", i))
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	opts := Options{LocalHost: local}
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
		patches := m.Stats().RangePatches
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
		checkTailPatched(t, m, patches, add, fmt.Sprintf("edit %d", i))
	}
}

// TestTailApplyPrivateScope locks down the subtlest part of statement
// range patching: private bindings. A tail replayed on top of the
// cached prefix's journal must resolve names in exactly the scope a
// full replay reaches at the cut — references after a prefix `private`
// bind to the file's private node, and a `private` declared IN the
// tail affects only subsequent references, both byte-identical to a
// fresh run. An edit before a private must take the whole-file
// undo-first path; removing statements after the last private is a
// range patch again.
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
		patches := m.Stats().RangePatches
		res, err = update(m, inputs)
		if err != nil {
			t.Fatalf("tail edit %d: %v", i, err)
		}
		if !res.Incremental {
			t.Fatalf("tail edit %d (%q): add-only edit took the full re-map path", i, add)
		}
		checkTailPatched(t, m, patches, add, fmt.Sprintf("tail edit %d", i))
		checkEquivalent(t, opts, inputs, res, fmt.Sprintf("tail edit %d", i))
	}
	tails := m.Stats().RangePatches

	// A modification before a private declaration changes what that
	// private's later references mean relative to the edit: the engine
	// must fall back to whole-file undo-and-reapply (undo-first, as a.map
	// has privates) and still match a fresh run.
	mod := make([]Input, len(inputs))
	copy(mod, inputs)
	mod[0].Src = strings.Replace(mod[0].Src, "beta(DAILY)", "beta(WEEKLY)", 1)
	inputs = mod
	res, err = update(m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().RangePatches != tails {
		t.Fatalf("edit before a private was range-patched (RangePatches=%d, want %d)", m.Stats().RangePatches, tails)
	}
	if got, want := m.Timing().StmtsReplayed, 2*stmtCount(inputs[0].Src); got != want {
		t.Fatalf("edit before a private: StmtsReplayed=%d, want the whole file undone and re-applied (%d)", got, want)
	}
	checkEquivalent(t, opts, inputs, res, "prefix modification")

	// Truncating the statement after the last private is a range patch
	// that only undoes it.
	trunc := make([]Input, len(inputs))
	copy(trunc, inputs)
	trunc[0].Src = strings.TrimSuffix(trunc[0].Src, "beta\teta(HOURLY)\n")
	inputs = trunc
	res, err = update(m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().RangePatches != tails+1 {
		t.Fatalf("truncation was not range-patched (RangePatches=%d, want %d)", m.Stats().RangePatches, tails+1)
	}
	if got, want := m.Timing().StmtsReplayed, stmtCount("beta\teta(HOURLY)\n"); got != want {
		t.Fatalf("truncation: StmtsReplayed=%d, want %d", got, want)
	}
	checkEquivalent(t, opts, inputs, res, "truncation")
}
