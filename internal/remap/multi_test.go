package remap

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pathalias/internal/graph"
	"pathalias/internal/mapgen"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
)

// checkVantage asserts that one vantage of a Multi matches a fresh
// single-source run with that LocalHost — including matching errors
// when the vantage host is absent.
func checkVantage(t *testing.T, m *Multi, opts Options, inputs []Input, host, label string) {
	t.Helper()
	vopts := opts
	vopts.LocalHost = host
	got, gerr := m.ResultFor(host)
	want, werr := freshRun(t, vopts, inputs)
	// Errorf, not Fatalf: checkVantage runs on worker goroutines.
	if (gerr != nil) != (werr != nil) {
		t.Errorf("%s [%s]: error mismatch: multi=%v fresh=%v", label, host, gerr, werr)
		return
	}
	if gerr != nil {
		return
	}
	if g, w := renderEntries(got.Entries), renderEntries(want.Entries); g != w {
		t.Errorf("%s [%s]: entries diverge\nfirst difference:\n%s", label, host, firstDiff(g, w))
		return
	}
	if g, w := fmt.Sprint(got.Warnings), fmt.Sprint(want.Warnings); g != w {
		t.Errorf("%s [%s]: warnings diverge\n got: %q\nwant: %q", label, host, g, w)
		return
	}
	if g, w := fmt.Sprint(got.Unreachable), fmt.Sprint(want.Unreachable); g != w {
		t.Errorf("%s [%s]: unreachable diverge\n got: %q\nwant: %q", label, host, g, w)
	}
}

// paperHosts enumerates every node name in the paper map — hosts and the
// ARPA network hub — each of which must be servable as a vantage.
func paperHosts(t *testing.T, src string) []string {
	t.Helper()
	pres, err := parser.ParseWith(parser.Options{}, parser.Input{Name: "paper1981.map", Src: src})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range pres.Graph.Nodes() {
		if n.IsPrivate() || n.IsDeleted() {
			continue
		}
		names = append(names, n.Name)
	}
	sort.Strings(names)
	return names
}

// TestMultiEveryVantagePaperMap is the cross-vantage equivalence suite:
// with testdata/paper1981.map loaded once into a shared MultiEngine,
// EVERY host in the map serves as a vantage and must produce output
// byte-identical to a fresh single-source run with that LocalHost.
// Vantages are queried concurrently, so the shared snapshot and graph
// reads are exercised under -race.
func TestMultiEveryVantagePaperMap(t *testing.T) {
	data, err := os.ReadFile("../../testdata/paper1981.map")
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	hosts := paperHosts(t, src)
	if len(hosts) < 8 {
		t.Fatalf("paper map should have at least 8 nodes, found %d: %v", len(hosts), hosts)
	}

	opts := Options{}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []Input{{Name: "paper1981.map", Src: src}}
	if err := m.Update(inputs); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, host := range hosts {
		wg.Add(1)
		go func(host string) {
			defer wg.Done()
			checkVantage(t, m, opts, inputs, host, "initial")
		}(host)
	}
	wg.Wait()

	// Edit a cost and re-check every vantage: those touched warm-remap,
	// the rest catch up lazily, all must stay byte-identical.
	edited := []Input{{Name: "paper1981.map",
		Src: src + "\nresearch\tstanford(WEEKLY)\n"}}
	if err := m.Update(edited); err != nil {
		t.Fatal(err)
	}
	for _, host := range hosts {
		wg.Add(1)
		go func(host string) {
			defer wg.Done()
			checkVantage(t, m, opts, edited, host, "after edit")
		}(host)
	}
	wg.Wait()

	// An unknown vantage must fail like a fresh run would.
	if _, err := m.ResultFor("no-such-host"); err == nil {
		t.Fatal("expected error for unknown vantage host")
	}
}

// TestMultiRandomizedEquivalence extends the randomized edit-sequence
// equivalence test to multiple concurrent vantages: after every random
// add/remove/modify/file-shuffle step, 3+ vantages of the shared engine
// are byte-compared (concurrently) against fresh single-source runs.
func TestMultiRandomizedEquivalence(t *testing.T) {
	steps := 30
	if testing.Short() {
		steps = 10
	}
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := mapgen.Small()
			cfg.Seed = seed
			cfg.CoreFiles = 4
			pins, local := mapgen.Generate(cfg)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			opts := Options{LocalHost: local}
			m, err := NewMulti(opts)
			if err != nil {
				t.Fatal(err)
			}
			vantages := []string{local, "host0", "host1", "host7"}

			inputs := toInputs(pins)
			if err := m.Update(inputs); err != nil {
				t.Fatal(err)
			}
			check := func(label string) {
				var wg sync.WaitGroup
				for _, host := range vantages {
					wg.Add(1)
					go func(host string) {
						defer wg.Done()
						checkVantage(t, m, opts, inputs, host, label)
					}(host)
				}
				wg.Wait()
			}
			check("initial")

			var mu mutator
			for step := 0; step < steps; step++ {
				var addHost bool
				inputs, addHost = mutateMap(rng, inputs, &mu)
				fullBefore := m.Stats().FullRemaps
				if err := m.Update(inputs); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				check(fmt.Sprintf("step %d (seed %d)", step, seed))
				// check resolved every vantage; a host-add edit must have
				// kept all of them warm.
				if addHost {
					if got := m.Stats().FullRemaps; got != fullBefore {
						t.Fatalf("step %d (seed %d): host-add edit re-mapped fully (%d -> %d)",
							step, seed, fullBefore, got)
					}
				}
			}
			t.Logf("seed %d: stats %+v", seed, m.Stats())
		})
	}
}

// TestMultiLazyCatchUp checks the multi-generation warm path: a vantage
// queried only every few updates must replay the union of the change
// sets it missed and still match a fresh run.
func TestMultiLazyCatchUp(t *testing.T) {
	cfg := mapgen.Small()
	cfg.CoreFiles = 3
	pins, local := mapgen.Generate(cfg)
	opts := Options{LocalHost: local}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}

	inputs := toInputs(pins)
	if err := m.Update(inputs); err != nil {
		t.Fatal(err)
	}
	// Materialize the lazy vantage once, then leave it idle.
	checkVantage(t, m, opts, inputs, "host3", "initial")

	rng := rand.New(rand.NewSource(99))
	var mu mutator
	for step := 0; step < 12; step++ {
		inputs, _ = mutateMap(rng, inputs, &mu)
		if err := m.Update(inputs); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// The default vantage tracks every update (Update recomputes
		// it eagerly); host3 is only re-checked every
		// fourth step and must catch up across the missed generations.
		checkVantage(t, m, opts, inputs, local, fmt.Sprintf("step %d default", step))
		if step%4 == 3 {
			checkVantage(t, m, opts, inputs, "host3", fmt.Sprintf("step %d lazy", step))
		}
	}
}

// TestMultiUpdateThenRefresh: Update recomputes the default vantage
// alone and leaves the other resident vantages stale; Refresh brings
// every one of them to the current generation, each byte-identical to a
// fresh run, so that ResultFor then answers from cache.
func TestMultiUpdateThenRefresh(t *testing.T) {
	cfg := mapgen.Small()
	cfg.CoreFiles = 3
	pins, local := mapgen.Generate(cfg)
	opts := Options{LocalHost: local}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	inputs := toInputs(pins)
	if err := m.Update(inputs); err != nil {
		t.Fatal(err)
	}
	others := []string{"host3", "host5", "host8"}
	for _, h := range others {
		if _, err := m.ResultFor(h); err != nil {
			t.Fatal(err)
		}
	}
	fresh := func() []string {
		m.mu.RLock()
		defer m.mu.RUnlock()
		var out []string
		for h, v := range m.vans {
			if m.cachedLocked(v) {
				out = append(out, h)
			}
		}
		sort.Strings(out)
		return out
	}
	runs := func() int { s := m.Stats(); return s.Incremental + s.FullRemaps }

	rng := rand.New(rand.NewSource(7))
	var mu mutator
	for step := 0; step < 6; step++ {
		inputs, _ = mutateMap(rng, inputs, &mu)
		before := runs()
		if err := m.Update(inputs); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got := fresh(); !slices.Equal(got, []string{local}) {
			t.Fatalf("step %d: after Update the fresh vantages are %v, want only the default %s", step, got, local)
		}
		if got := runs() - before; got != 1 {
			t.Fatalf("step %d: Update ran %d vantages, want 1", step, got)
		}
		m.Refresh()
		if got := fresh(); len(got) != len(others)+1 {
			t.Fatalf("step %d: after Refresh the fresh vantages are %v, want all %d", step, got, len(others)+1)
		}
		if got := runs() - before; got != len(others)+1 {
			t.Fatalf("step %d: Update and Refresh ran %d vantages, want %d", step, got, len(others)+1)
		}
		after := runs()
		for _, h := range append([]string{local}, others...) {
			checkVantage(t, m, opts, inputs, h, fmt.Sprintf("step %d", step))
		}
		if got := runs(); got != after {
			t.Fatalf("step %d: ResultFor after Refresh ran %d vantages, want none", step, got-after)
		}
	}
}

// TestCountersDoNotWaitForLock: Generation and Stats answer while an
// Update or Refresh holds the engine's write lock (held here by the
// test), with the values the last completed section published.
func TestCountersDoNotWaitForLock(t *testing.T) {
	pins, local := mapgen.Generate(mapgen.Small())
	m, err := NewMulti(Options{LocalHost: local})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(toInputs(pins)); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	type counters struct {
		gen   uint64
		stats EngineStats
	}
	got := make(chan counters, 1)
	go func() { got <- counters{m.Generation(), m.Stats()} }()
	select {
	case c := <-got:
		if c.gen != 1 || c.stats.Updates != 1 || c.stats.FullRemaps != 1 {
			t.Errorf("generation %d, stats %+v; want generation 1, one update, one full run", c.gen, c.stats)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Generation/Stats still waiting for the engine's write lock after 10s")
	}
}

// TestMultiRepeatedNames: input sets that repeat an input name take the
// journal's rebuild path, serve every vantage like a fresh run, answer
// what-if questions, and return to incremental patching afterwards.
func TestMultiRepeatedNames(t *testing.T) {
	opts := Options{}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	base := []Input{{Name: "m", Src: "a\tb(10)\nb\tc(10)\n"}}
	if err := m.Update(base); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"a", "b", "c"} {
		checkVantage(t, m, opts, base, h, "journaled")
	}

	dup := []Input{{Name: "m", Src: "a\tb(10)\n"}, {Name: "m", Src: "b\tc(10)\nc\td(5)\n"}}
	full := m.Stats().FullRemaps
	if err := m.Update(dup); err != nil {
		t.Fatal(err)
	}
	m.Refresh()
	if p := m.Timing().Path; p != "rebuild" {
		t.Errorf("repeated name: path %q, want rebuild", p)
	}
	// The refresh re-mapped the three resident vantages, and counted them.
	if got := m.Stats().FullRemaps; got != full+3 {
		t.Errorf("repeated name: %d full re-maps counted, want 3", got-full)
	}
	for _, h := range []string{"a", "b", "d"} {
		checkVantage(t, m, opts, dup, h, "repeated name")
	}
	checkDeleteOverlay(t, m, opts, dup, 1, "a", "c", "d", "repeated name")

	if err := m.Update(base); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"a", "b", "c"} {
		checkVantage(t, m, opts, base, h, "revert")
	}
	edited := []Input{{Name: "m", Src: "a\tb(10)\nb\tc(20)\n"}}
	if err := m.Update(edited); err != nil {
		t.Fatal(err)
	}
	if p := m.Timing().Path; p != "incremental" {
		t.Errorf("edit after the revert: path %q, want incremental", p)
	}
	checkVantage(t, m, opts, edited, "a", "edit after the revert")

	// Every vantage of the rebuilt journal maps its own machine, so one
	// run's invented back links must not reach the next: from y, z is
	// reached over an invented y->z; from a, queried after y in the same
	// generation, a fresh run reaches z over q!r!z at 2010.
	m, err = NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	leak := []Input{{Name: "m", Src: "a\ty(10), q(10)\nq\tr(1000)\n"}, {Name: "m", Src: "r\tz(1000)\nz\ty(10)\n"}}
	if err := m.Update(leak); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"y", "a"} {
		checkVantage(t, m, opts, leak, h, "repeated name back links")
	}
}

// TestMultiRepeatedNameSequence walks a fixed edit sequence through a
// name listed twice. Two same-named inputs share one private scope, so a
// private the first copy declares rebinds the name in the second copy
// too, while another file keeps the global host. Every step must match
// fresh runs from three vantages, and a what-if from the first must
// match a fresh run over the edited source.
func TestMultiRepeatedNameSequence(t *testing.T) {
	m1 := Input{Name: "m", Src: "a\tb(10), x(200)\nb\tc(10)\n"}
	n := Input{Name: "n", Src: "c\td(10), x(20)\nd\ta(10)\n"}
	m2 := Input{Name: "m", Src: "x\ty(10)\nc\tx(30)\ny\tz(10)\n"}
	priv := Input{Name: "m", Src: "private {x}\n" + m1.Src + "x\tw(5)\n"}
	privEdited := Input{Name: "m", Src: strings.Replace(priv.Src, "c(10)", "c(50)", 1)}
	m2Edited := Input{Name: "m", Src: strings.Replace(m2.Src, "x(30)", "x(3)", 1)}
	steps := []struct {
		label  string
		inputs []Input
		path   string
	}{
		{"base", []Input{m1, n}, "rebuild"},
		{"identical copy added", []Input{m1, n, m1}, "rebuild"},
		{"same-named copy added", []Input{m1, n, m2}, "rebuild"},
		{"private in the first copy", []Input{priv, n, m2}, "rebuild"},
		{"first copy edited", []Input{privEdited, n, m2}, "rebuild"},
		{"second copy edited", []Input{privEdited, n, m2Edited}, "rebuild"},
		{"first copy dropped", []Input{n, m2Edited}, "rebuild"},
		{"copy restored", []Input{privEdited, n, m2Edited}, "rebuild"},
		{"revert", []Input{m1, n}, "rebuild"},
		{"edit after the revert", []Input{{Name: "m", Src: strings.Replace(m1.Src, "c(10)", "c(40)", 1)}, n}, "incremental"},
	}
	opts := Options{LocalHost: "a"}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		if err := m.Update(st.inputs); err != nil {
			t.Fatalf("%s: %v", st.label, err)
		}
		if p := m.Timing().Path; p != st.path {
			t.Errorf("%s: path %q, want %q", st.label, p, st.path)
		}
		for _, h := range []string{"a", "c", "x"} {
			checkVantage(t, m, opts, st.inputs, h, st.label)
		}
		file := slices.IndexFunc(st.inputs, func(in Input) bool { return in.Name == "n" })
		checkDeleteOverlay(t, m, opts, st.inputs, file, "a", "c", "d", st.label)
	}
}

// checkDeleteOverlay asks m what routes from host would be if the link
// from!to were deleted, and compares the answer with a fresh run over
// inputs whose file at index file also declares delete {from!to}.
func checkDeleteOverlay(t *testing.T, m *Multi, opts Options, inputs []Input, file int, host, from, to, label string) {
	t.Helper()
	run, err := m.EvalOverlay(host, func(c OverlayCtx) (*graph.Overlay, error) {
		a, aok := c.Lookup(from)
		b, bok := c.Lookup(to)
		if !aok || !bok {
			return nil, fmt.Errorf("no host %s or %s", from, to)
		}
		l := c.FindLink(a, b)
		if l == nil {
			return nil, fmt.Errorf("no link %s!%s", from, to)
		}
		ov := graph.NewOverlay()
		ov.RemoveLink(l)
		return ov, nil
	})
	if err != nil {
		t.Fatalf("%s: what-if: %v", label, err)
	}
	edited := slices.Clone(inputs)
	edited[file].Src = strings.TrimSuffix(edited[file].Src, "\n") + fmt.Sprintf("\ndelete {%s!%s}\n", from, to)
	vopts := opts
	vopts.LocalHost = host
	want, err := freshRun(t, vopts, edited)
	if err != nil {
		t.Fatalf("%s: fresh run: %v", label, err)
	}
	if g, w := renderEntries(run.Entries), renderEntries(want.Entries); g != w {
		t.Errorf("%s: what-if diverges from a fresh run\nfirst difference:\n%s", label, firstDiff(g, w))
	}
	if g, w := fmt.Sprint(run.Unreachable), fmt.Sprint(want.Unreachable); g != w {
		t.Errorf("%s: what-if unreachable diverge\n got: %q\nwant: %q", label, g, w)
	}
}

// TestMultiEviction: the vantage cap evicts least-recently-used
// machines (never the default), and an evicted vantage is rebuilt
// correctly when queried again.
func TestMultiEviction(t *testing.T) {
	pins, local := mapgen.Generate(mapgen.Small())
	opts := Options{LocalHost: local, MaxVantages: 3}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	inputs := toInputs(pins)
	if err := m.Update(inputs); err != nil {
		t.Fatal(err)
	}

	for _, h := range []string{"host0", "host1", "host2", "host3", "host4"} {
		if _, err := m.ResultFor(h); err != nil {
			t.Fatalf("%s: %v", h, err)
		}
	}
	vans := m.Vantages()
	if len(vans) > 3 {
		t.Fatalf("vantage cap not enforced: %v", vans)
	}
	found := false
	for _, v := range vans {
		if v == local {
			found = true
		}
	}
	if !found {
		t.Fatalf("default vantage evicted: %v", vans)
	}
	// An evicted vantage comes back cold but correct.
	checkVantage(t, m, opts, inputs, "host0", "revived")
}

// routeNeutralEdit returns a copy of inputs with one link's cost raised
// (HOURLY to WEEKLY), chosen so that fresh runs from every vantage
// produce byte-identical routes before and after: an effective edit
// that moves none of their routes.
func routeNeutralEdit(t *testing.T, inputs []Input, vantages []string) []Input {
	t.Helper()
	i, src, ok := mapgen.RouteNeutralEdit(inputs, func(in []Input) string {
		var sb strings.Builder
		for _, h := range vantages {
			res, err := freshRun(t, Options{LocalHost: h}, in)
			if err != nil {
				t.Fatalf("fresh run from %s: %v", h, err)
			}
			sb.WriteString(renderEntries(res.Entries))
		}
		return sb.String()
	})
	if !ok {
		t.Fatal("no route-neutral cost edit found")
	}
	edited := append([]Input(nil), inputs...)
	edited[i].Src = src
	return edited
}

// TestRouteGenChurnFree: an edit that moves none of a vantage's routes
// leaves its RouteGen where it was, so serving layers keep their
// stores. The map has passive hosts, so every warm run sweeps invented
// back links and re-invents them as fresh *graph.Link values; the
// labels riding them come back to the same value and must not count as
// changed.
func TestRouteGenChurnFree(t *testing.T) {
	pins, local := mapgen.Generate(mapgen.Small())
	inputs := toInputs(pins)
	vantages := []string{local, "host7", "host19"}
	edited := routeNeutralEdit(t, inputs, vantages)

	opts := Options{LocalHost: local}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(inputs); err != nil {
		t.Fatal(err)
	}
	gens := make(map[string]uint64)
	for _, h := range vantages {
		res, err := m.ResultFor(h)
		if err != nil {
			t.Fatal(err)
		}
		if res.BackLinked == 0 {
			t.Fatalf("vantage %s reaches no host through a back link; the test needs some", h)
		}
		gens[h] = res.RouteGen
	}

	if err := m.Update(edited); err != nil {
		t.Fatal(err)
	}
	for _, h := range vantages {
		res, err := m.ResultFor(h)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Incremental {
			t.Fatalf("vantage %s re-mapped fully; the edit must take the warm path", h)
		}
		if res.RouteGen != gens[h] || res.LabelsChanged != 0 {
			t.Errorf("vantage %s: RouteGen %d -> %d, %d labels changed; want unchanged, 0",
				h, gens[h], res.RouteGen, res.LabelsChanged)
		}
		checkVantage(t, m, opts, edited, h, "route-neutral edit")
	}
	if got := m.Timing().LabelsChanged; got != 0 {
		t.Errorf("UpdateTiming.LabelsChanged = %d, want 0", got)
	}
}

// FuzzMultiEdits is the differential fuzzer over the shared engine: a
// seed draws a map and a sequence of steps random edits (mutateMap),
// applied to a Multi with the default vantage and two from= vantages
// resident; after every step the patched CSR snapshot must equal a
// fresh graph.Snapshot (graph.VerifySnapshot), the journal's ledger
// must hold its invariants (core.verifyLedger), and each vantage must be
// byte-identical to a fresh single-source run — the oracle of
// TestMultiRandomizedEquivalence. The low 5 bits of steps count the
// edits; the top 3 pick the printer options (none, FirstHopCost,
// DomainsOnly, SortByCost, then the same four again), so an input
// below 32 runs with the default options.
//
//	go test -run '^$' -fuzz FuzzMultiEdits -fuzztime 60s ./internal/remap/
func FuzzMultiEdits(f *testing.F) {
	printOpts := []printer.Options{{}, {FirstHopCost: true}, {DomainsOnly: true}, {SortByCost: true}}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		cfg := mapgen.Small()
		cfg.Seed = seed
		cfg.CoreFiles = 3
		pins, local := mapgen.Generate(cfg)
		opts := Options{LocalHost: local, Printer: printOpts[int(steps>>5)%len(printOpts)]}
		m, err := NewMulti(opts)
		if err != nil {
			t.Fatal(err)
		}
		inputs := toInputs(pins)
		if err := m.Update(inputs); err != nil {
			t.Fatal(err)
		}
		vantages := []string{local, "host3", "host11"}
		// Every earlier step's Results, and the stores built from them,
		// must stay as they were returned.
		var handed ownership
		check := func(label string) {
			// The patched snapshot (and its reverse adjacency, when
			// patched) first, before the vantages' runs build anything.
			if m.e.snap != nil {
				if err := m.e.g.VerifySnapshot(m.e.snap); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			if err := m.e.verifyLedger(); err != nil {
				t.Fatalf("%s: ledger: %v", label, err)
			}
			for _, h := range vantages {
				checkVantage(t, m, opts, inputs, h, label)
			}
			if t.Failed() {
				t.FailNow()
			}
			if err := VerifyBackLinks(m); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			handed.verify(t, label)
			for _, h := range vantages {
				if res, err := m.ResultFor(h); err == nil {
					handed.keep(label+" ["+h+"]", res, opts)
				}
			}
		}
		check("initial")
		var mu mutator
		for step := 0; step < int(steps%32); step++ {
			inputs, _ = mutateMap(rng, inputs, &mu)
			if err := m.Update(inputs); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			check(fmt.Sprintf("step %d", step))
		}
	})
}

// TestMultiGhostPassiveHostRestored removes the only line declaring a
// passive host — the node stays as a ghost, unmapped — and then puts
// the line back. The restored host has no inbound link, so a fresh run
// reaches it only through an invented back link; a warm run must still
// consider it in its back-link pass although its label never changed.
func TestMultiGhostPassiveHostRestored(t *testing.T) {
	cfg := mapgen.Small()
	pins, local := mapgen.Generate(cfg)
	inputs := toInputs(pins)
	passive := fmt.Sprintf("host%d", cfg.Hosts-1)
	removed := append([]Input(nil), inputs...)
	found := false
	for i := range removed {
		lines := strings.Split(removed[i].Src, "\n")
		for ln, l := range lines {
			if strings.HasPrefix(l, passive+"\t") {
				lines = append(lines[:ln], lines[ln+1:]...)
				removed[i].Src = strings.Join(lines, "\n")
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatalf("no line declares %s", passive)
	}

	opts := Options{LocalHost: local}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	vantages := []string{local, "host7", "host19"}
	for _, step := range []struct {
		label  string
		inputs []Input
	}{{"initial", inputs}, {"line removed", removed}, {"line restored", inputs}} {
		if err := m.Update(step.inputs); err != nil {
			t.Fatal(err)
		}
		for _, h := range vantages {
			checkVantage(t, m, opts, step.inputs, h, step.label)
		}
	}
	if res, err := m.ResultFor(local); err != nil || !res.Incremental {
		t.Fatalf("restore re-mapped fully (err %v); the test needs the warm path", err)
	}
}
