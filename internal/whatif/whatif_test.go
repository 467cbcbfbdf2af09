package whatif

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pathalias/internal/cost"
	"pathalias/internal/graph"
	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
	"pathalias/internal/remap"
	"pathalias/internal/simnet"
)

func paperInputs(t testing.TB) []remap.Input {
	t.Helper()
	data, err := os.ReadFile("../../testdata/paper1981.map")
	if err != nil {
		t.Fatal(err)
	}
	return []remap.Input{{Name: "paper1981.map", Src: string(data)}}
}

func newEval(t testing.TB, inputs []remap.Input, opts Options) (*remap.Multi, *Evaluator) {
	t.Helper()
	return newEvalWith(t, inputs, remap.Options{}, opts)
}

// newEvalWith builds an engine with ropts over inputs and an evaluator
// over it. Vantages named in resident are made resident (their solved
// trees are what warm overlay runs start from); any other vantage is
// mapped from scratch per overlay.
func newEvalWith(t testing.TB, inputs []remap.Input, ropts remap.Options, opts Options, resident ...string) (*remap.Multi, *Evaluator) {
	t.Helper()
	m, err := remap.NewMulti(ropts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.Update(inputs); err != nil {
		t.Fatal(err)
	}
	for _, v := range resident {
		if _, err := m.ResultFor(v); err != nil {
			t.Fatal(err)
		}
	}
	return m, New(m, opts)
}

// forEachStart runs fn twice, as subtests: with the vantages resident
// (overlay runs start warm from their solved trees, unless the edits
// force a full run) and with none resident (every run is full). It then
// checks which start the runs took: none warm without residents, and
// some warm with them.
func forEachStart(t *testing.T, inputs []remap.Input, vantages []string, fn func(t *testing.T, ev *Evaluator, resident bool)) {
	t.Helper()
	for _, resident := range []bool{false, true} {
		name, res := "fresh", []string(nil)
		if resident {
			name, res = "resident", vantages
		}
		t.Run(name, func(t *testing.T) {
			_, ev := newEvalWith(t, inputs, remap.Options{}, Options{}, res...)
			fn(t, ev, resident)
			st := ev.Stats()
			t.Logf("overlay runs: %d warm, %d full", st.WarmRuns, st.FullRuns)
			if st.WarmRuns+st.FullRuns != st.Misses {
				t.Errorf("runs by start do not add up to the misses: %+v", st)
			}
			if resident && st.WarmRuns == 0 {
				t.Errorf("no overlay run started warm from a resident vantage: %+v", st)
			}
			if !resident && st.WarmRuns != 0 {
				t.Errorf("overlay runs started warm without a resident vantage: %+v", st)
			}
		})
	}
}

// parseFresh parses the inputs into a brand-new graph.
func parseFresh(t testing.TB, inputs []remap.Input) *graph.Graph {
	t.Helper()
	pins := make([]parser.Input, len(inputs))
	for i, in := range inputs {
		pins[i] = parser.Input{Name: in.Name, Src: in.Src}
	}
	pres, err := parser.Parse(pins...)
	if err != nil {
		t.Fatal(err)
	}
	return pres.Graph
}

// freshEntries is the ground truth: parse the inputs from scratch, apply
// the edit to the fresh graph (the same edit the overlay hypothesizes),
// and run the classic one-shot pipeline.
func freshEntries(t testing.TB, inputs []remap.Input, local string, edit func(tt testing.TB, g *graph.Graph)) []printer.Entry {
	t.Helper()
	es, _ := freshRun(t, inputs, local, mapper.DefaultOptions(), edit)
	return es
}

// freshRun is freshEntries under the given mapper options, also
// returning the unreachable host names in the mapper's order.
func freshRun(t testing.TB, inputs []remap.Input, local string, mopts mapper.Options, edit func(tt testing.TB, g *graph.Graph)) ([]printer.Entry, []string) {
	t.Helper()
	g := parseFresh(t, inputs)
	if edit != nil {
		edit(t, g)
	}
	n, ok := g.Lookup(local)
	if !ok {
		t.Fatalf("local host %q not in fresh graph", local)
	}
	res, err := mapper.Run(g, n, mopts)
	if err != nil {
		t.Fatal(err)
	}
	var unreachable []string
	for _, u := range res.Unreachable {
		unreachable = append(unreachable, u.Name)
	}
	return printer.Routes(res, printer.Options{}), unreachable
}

func render(es []printer.Entry) string {
	var b strings.Builder
	for _, e := range es {
		fmt.Fprintf(&b, "%s\t%s\t%d\n", e.Host, e.Route, int64(e.Cost))
	}
	return b.String()
}

// overlayEntries evaluates a spec and returns the run's entries.
func overlayEntries(t testing.TB, ev *Evaluator, from, spec string) []printer.Entry {
	t.Helper()
	sp, err := ev.parse(spec)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	ent, err := ev.eval(from, sp)
	if err != nil {
		t.Fatalf("eval %q from %s: %v", spec, from, err)
	}
	return ent.run.Entries
}

func mustLink(t testing.TB, g *graph.Graph, from, to string) *graph.Link {
	t.Helper()
	a, ok := g.Lookup(from)
	if !ok {
		t.Fatalf("no host %q", from)
	}
	b, ok := g.Lookup(to)
	if !ok {
		t.Fatalf("no host %q", to)
	}
	l := g.FindLink(a, b)
	if l == nil {
		t.Fatalf("no link %s!%s", from, to)
	}
	return l
}

// checkEquivalence asserts that every overlay edit answers byte-identical
// to a fresh run over an identically edited source graph, across the
// given vantages. A spec made only of added links invalidates nothing,
// so from a resident vantage its run must start warm.
func checkEquivalence(t *testing.T, inputs []remap.Input, ev *Evaluator, resident bool, vantages []string, spec string, edit func(tt testing.TB, g *graph.Graph)) {
	t.Helper()
	onlyAdds := true
	if sp, err := ParseSpec(spec); err == nil {
		for _, ed := range sp.Edits {
			onlyAdds = onlyAdds && ed.Op == OpLink
		}
	}
	for _, v := range vantages {
		before := ev.Stats()
		got := render(overlayEntries(t, ev, v, spec))
		after := ev.Stats()
		if resident && onlyAdds && after.FullRuns != before.FullRuns {
			t.Errorf("[%s] overlay %q of added links ran full from a resident vantage", v, spec)
		}
		want := render(freshEntries(t, inputs, v, edit))
		if got != want {
			t.Errorf("[%s] overlay %q diverges from fresh run\ngot:\n%s\nwant:\n%s", v, spec, got, want)
		}
	}
}

// TestEquivalencePaperRandomized: randomized dead/cost/link overlays on
// the paper map must be byte-identical to fresh runs on an edited source,
// across two vantages.
func TestEquivalencePaperRandomized(t *testing.T) {
	inputs := paperInputs(t)
	vantages := []string{"unc", "research"}
	forEachStart(t, inputs, vantages, func(t *testing.T, ev *Evaluator, resident bool) {
		equivalencePaperRandomized(t, inputs, ev, resident, vantages)
	})
}

func equivalencePaperRandomized(t *testing.T, inputs []remap.Input, ev *Evaluator, resident bool, vantages []string) {
	links := simnet.OrdinaryLinks(parseFresh(t, inputs))
	if len(links) < 5 {
		t.Fatalf("too few ordinary links: %v", links)
	}
	rng := rand.New(rand.NewSource(42))

	// Every single dead link (the map is small enough to be exhaustive).
	for _, l := range links {
		l := l
		checkEquivalence(t, inputs, ev, resident, vantages, fmt.Sprintf("dead %s %s", l.From, l.To),
			func(tt testing.TB, g *graph.Graph) {
				a, _ := g.Lookup(l.From)
				b, _ := g.Lookup(l.To)
				if !g.DeleteLink(a, b) {
					tt.Fatalf("fresh graph has no link %s!%s", l.From, l.To)
				}
			})
	}

	// Random cost overrides, including symbolic and extreme values.
	for _, c := range []string{"0", "1", "DEMAND", "HOURLY*4", "40000000"} {
		l := links[rng.Intn(len(links))]
		cv := parseCostForTest(t, c)
		checkEquivalence(t, inputs, ev, resident, vantages, fmt.Sprintf("cost %s %s %s", l.From, l.To, c),
			func(tt testing.TB, g *graph.Graph) {
				gl := mustLink(tt, g, l.From, l.To)
				g.SetLinkCost(gl, cv, gl.Op)
			})
	}

	// Random added links between host pairs with no declared link.
	added := 0
	for tries := 0; added < 4 && tries < 200; tries++ {
		a := links[rng.Intn(len(links))].From
		b := links[rng.Intn(len(links))].To
		g := parseFresh(t, inputs)
		na, _ := g.Lookup(a)
		nb, _ := g.Lookup(b)
		if a == b || g.FindLink(na, nb) != nil {
			continue
		}
		added++
		checkEquivalence(t, inputs, ev, resident, vantages, fmt.Sprintf("link %s %s 77", a, b),
			func(tt testing.TB, g *graph.Graph) {
				x, _ := g.Lookup(a)
				y, _ := g.Lookup(b)
				g.AddLink(x, y, 77, graph.DefaultOp, 0)
			})
	}
	if added == 0 {
		t.Fatal("found no absent link pair to add")
	}

	// Compound overlay: several edits at once.
	checkEquivalence(t, inputs, ev, resident, vantages,
		"dead unc duke; cost duke research WEEKLY; link ucbvax phs 123",
		func(tt testing.TB, g *graph.Graph) {
			a, _ := g.Lookup("unc")
			b, _ := g.Lookup("duke")
			g.DeleteLink(a, b)
			dr := mustLink(tt, g, "duke", "research")
			g.SetLinkCost(dr, 30000, dr.Op)
			u, _ := g.Lookup("ucbvax")
			p, _ := g.Lookup("phs")
			g.AddLink(u, p, 123, graph.DefaultOp, 0)
		})
}

func parseCostForTest(t testing.TB, s string) cost.Cost {
	t.Helper()
	sp, err := ParseSpec("cost a b " + s)
	if err != nil {
		t.Fatalf("cost %q: %v", s, err)
	}
	return sp.Edits[0].Cost
}

// TestEquivalenceSourceLevel pins the ISSUE's literal phrasing: a dead
// overlay equals a source tree with `delete {a!b}` appended, and a link
// overlay equals a source tree with the link declared.
func TestEquivalenceSourceLevel(t *testing.T) {
	inputs := paperInputs(t)
	vantages := []string{"unc", "research"}
	forEachStart(t, inputs, vantages, func(t *testing.T, ev *Evaluator, _ bool) {
		equivalenceSourceLevel(t, inputs, ev, vantages)
	})
}

func equivalenceSourceLevel(t *testing.T, inputs []remap.Input, ev *Evaluator, vantages []string) {
	for _, v := range vantages {
		got := render(overlayEntries(t, ev, v, "dead duke research"))
		edited := append(append([]remap.Input(nil), inputs...),
			remap.Input{Name: "overlay.edit", Src: "delete {duke!research}\n"})
		want := render(freshEntries(t, edited, v, nil))
		if got != want {
			t.Errorf("[%s] dead overlay != source delete\ngot:\n%s\nwant:\n%s", v, got, want)
		}

		got = render(overlayEntries(t, ev, v, "link ucbvax unc 250"))
		edited = append(append([]remap.Input(nil), inputs...),
			remap.Input{Name: "overlay.edit", Src: "ucbvax\tunc(250)\n"})
		want = render(freshEntries(t, edited, v, nil))
		if got != want {
			t.Errorf("[%s] link overlay != source declaration\ngot:\n%s\nwant:\n%s", v, got, want)
		}
	}
}

// TestEquivalenceMapgen5k runs the randomized suite on a synthetic
// 5000-host map: dead links (including ones that force back-link
// re-invention), cost overrides, and added links, two vantages each.
func TestEquivalenceMapgen5k(t *testing.T) {
	if testing.Short() {
		t.Skip("5k-host equivalence suite skipped in -short")
	}
	pins, local := mapgen.Generate(mapgen.Scaled(5000, 7))
	inputs := make([]remap.Input, len(pins))
	for i, in := range pins {
		inputs[i] = remap.Input{Name: in.Name, Src: in.Src}
	}
	vantages := []string{local, "host1"}
	forEachStart(t, inputs, vantages, func(t *testing.T, ev *Evaluator, resident bool) {
		equivalenceMapgen5k(t, inputs, ev, resident, vantages)
	})
}

func equivalenceMapgen5k(t *testing.T, inputs []remap.Input, ev *Evaluator, resident bool, vantages []string) {
	links := simnet.OrdinaryLinks(parseFresh(t, inputs))
	rng := rand.New(rand.NewSource(5000))

	for trial := 0; trial < 2; trial++ {
		l := links[rng.Intn(len(links))]
		checkEquivalence(t, inputs, ev, resident, vantages, fmt.Sprintf("dead %s %s", l.From, l.To),
			func(tt testing.TB, g *graph.Graph) {
				a, _ := g.Lookup(l.From)
				b, _ := g.Lookup(l.To)
				g.DeleteLink(a, b)
			})
	}
	l := links[rng.Intn(len(links))]
	checkEquivalence(t, inputs, ev, resident, vantages, fmt.Sprintf("cost %s %s 12345", l.From, l.To),
		func(tt testing.TB, g *graph.Graph) {
			gl := mustLink(tt, g, l.From, l.To)
			g.SetLinkCost(gl, 12345, gl.Op)
		})
}

// The line rendering marks the matched index key only when it differs
// from the queried name — a domain-suffix hit, not an exact one.
func TestExplainLineMatchedMarker(t *testing.T) {
	inputs := []remap.Input{{Name: "domains.map", Src: "a\tgw(100)\ngw\t.edu(50)\n.edu\t= {caip.rutgers}\n"}}
	_, ev := newEval(t, inputs, Options{})

	res, err := ev.Explain("a", "", "mit.edu")
	if err != nil {
		t.Fatal(err)
	}
	if res.Base.Matched != ".edu" {
		t.Fatalf("suffix query matched %q, want .edu", res.Base.Matched)
	}
	if line := res.Base.Line(); !strings.Contains(line, " matched .edu") {
		t.Errorf("suffix explain line %q lacks the matched marker", line)
	}
	res, err = ev.Explain("a", "", "gw")
	if err != nil {
		t.Fatal(err)
	}
	if line := res.Base.Line(); strings.Contains(line, " matched") {
		t.Errorf("exact explain line %q has a spurious matched marker", line)
	}
}

// checkExplanation asserts that an explanation found the route and that
// its per-hop steps telescope exactly to the route cost.
func checkExplanation(t testing.TB, x *Explanation, wantCost int64) {
	t.Helper()
	if !x.Found {
		t.Fatalf("no route for %s: %s", x.Dest, x.Reason)
	}
	if int64(x.Cost) != wantCost {
		t.Errorf("%s: explain cost %d != route cost %d", x.Dest, int64(x.Cost), wantCost)
	}
	prev := int64(0)
	for i, h := range x.Hops {
		// Total must telescope: previous total + step, saturating.
		want := prev + int64(h.Step)
		if prev+int64(h.Step) >= int64(1)<<40 {
			// Matches cost.Add's saturation only loosely; the real
			// assertion is the final sum below.
			want = int64(h.Total)
		}
		if int64(h.Total) != want {
			t.Errorf("%s hop %d (%s->%s): total %d != prev %d + step %d",
				x.Dest, i, h.From, h.To, int64(h.Total), prev, int64(h.Step))
		}
		prev = int64(h.Total)
	}
	if prev != int64(x.Cost) {
		t.Errorf("%s: hop totals end at %d, route cost %d", x.Dest, prev, int64(x.Cost))
	}
}

// TestExplainSumsToRouteCost: for every route the base map serves and
// for overlaid routes, the per-hop steps must telescope exactly to the
// mapper's route cost.
func TestExplainSumsToRouteCost(t *testing.T) {
	inputs := paperInputs(t)
	_, ev := newEval(t, inputs, Options{})

	base, err := ev.eval("unc", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range base.run.Entries {
		res, err := ev.Explain("unc", "", e.Host)
		if err != nil {
			t.Fatalf("explain %s: %v", e.Host, err)
		}
		checkExplanation(t, res.Base, int64(e.Cost))
	}

	// Overlaid: kill unc!duke and explain both sides of every route.
	over := overlayEntries(t, ev, "unc", "dead unc duke")
	for _, e := range over {
		res, err := ev.Explain("unc", "dead unc duke", e.Host)
		if err != nil {
			t.Fatalf("explain %s under overlay: %v", e.Host, err)
		}
		if res.Under == nil {
			t.Fatalf("no overlay-side explanation for %s", e.Host)
		}
		checkExplanation(t, res.Under, int64(e.Cost))
	}

	// Routes that cross invented back links: leaf declares a link out but
	// nobody declares one in, so reaching it takes an invented reverse
	// link; the explanation must mark the hop and the sums must still
	// telescope.
	backInputs := []remap.Input{{Name: "back.map", Src: "a\tb(100)\nb\tc(50)\nleaf\ta(10)\n"}}
	_, bev := newEval(t, backInputs, Options{})
	bent, err := bev.eval("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	sawBack := false
	for _, e := range bent.run.Entries {
		res, err := bev.Explain("a", "", e.Host)
		if err != nil {
			t.Fatal(err)
		}
		checkExplanation(t, res.Base, int64(e.Cost))
		for _, h := range res.Base.Hops {
			if h.Back {
				sawBack = true
			}
		}
	}
	if !sawBack {
		t.Error("expected a back-link hop on the route to leaf")
	}

	// Unknown destination: found=false with a reason, not an error.
	res, err := ev.Explain("unc", "", "no-such-host")
	if err != nil {
		t.Fatal(err)
	}
	if res.Base.Found || res.Base.Reason == "" {
		t.Errorf("explain of unknown host: %+v", res.Base)
	}
}

// TestLRUCounters: a repeated identical overlay at the same generation
// is a cache hit (no second mapping pass); an update sweeps stale
// generations; capacity evicts.
func TestLRUCounters(t *testing.T) {
	inputs := paperInputs(t)
	m, ev := newEval(t, inputs, Options{MaxCached: 3})

	addr1, err := ev.Resolve("unc", "dead unc duke", "research", "honey")
	if err != nil {
		t.Fatal(err)
	}
	st := ev.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.Resident != 1 {
		t.Fatalf("after first resolve: %+v", st)
	}
	addr2, err := ev.Resolve("unc", "dead,unc,duke", "research", "honey") // same spec, comma form
	if err != nil {
		t.Fatal(err)
	}
	if addr1 != addr2 {
		t.Fatalf("cached answer differs: %q vs %q", addr1, addr2)
	}
	st = ev.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Resident != 1 {
		t.Fatalf("after cached resolve: %+v", st)
	}
	if !strings.HasPrefix(addr1, "phs!") {
		t.Errorf("with unc!duke dead, research should route via phs: %q", addr1)
	}

	// Impact evaluates the base side once, then reuses both sides.
	if _, err := ev.ImpactOf("unc", "dead unc duke"); err != nil {
		t.Fatal(err)
	}
	st = ev.Stats()
	if st.Misses != 2 || st.Hits != 2 || st.Resident != 2 {
		t.Fatalf("after impact: %+v", st)
	}
	if _, err := ev.ImpactOf("unc", "dead unc duke"); err != nil {
		t.Fatal(err)
	}
	st = ev.Stats()
	if st.Misses != 2 || st.Hits != 4 {
		t.Fatalf("after repeated impact: %+v", st)
	}

	// Capacity eviction: a third and fourth distinct overlay at cap 3.
	for _, spec := range []string{"cost unc duke 9", "cost unc duke 10"} {
		if _, err := ev.Resolve("unc", spec, "research", "honey"); err != nil {
			t.Fatal(err)
		}
	}
	st = ev.Stats()
	if st.Resident != 3 || st.Evictions != 1 {
		t.Fatalf("after overflow: %+v", st)
	}

	// A map update obsoletes every cached machine: the next evaluation
	// sweeps them and the answer reflects the new generation.
	edited := []remap.Input{{Name: inputs[0].Name, Src: inputs[0].Src + "unc\tresearch(DEMAND)\n"}}
	if err := m.Update(edited); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Resolve("unc", "dead unc duke", "research", "honey"); err != nil {
		t.Fatal(err)
	}
	st = ev.Stats()
	if st.Resident != 1 {
		t.Fatalf("stale generations not swept: %+v", st)
	}
	if st.Evictions != 4 {
		t.Fatalf("evictions = %d want 4 (1 overflow + 3 stale): %+v", st.Evictions, st)
	}
}

// TestHostileOverlayQueries: graph-level validation failures surface as
// errors (routed turns them into err replies), never panics.
func TestHostileOverlayQueries(t *testing.T) {
	inputs := paperInputs(t)
	_, ev := newEval(t, inputs, Options{})
	cases := []struct{ spec, wantErr string }{
		{"dead nosuch duke", "unknown host"},
		{"dead unc nosuch", "unknown host"},
		{"cost unc research 100", "no link"}, // no direct unc!research link
		{"link unc duke 100", "already exists"},
		{"", "empty overlay spec"},
		{"dead unc duke; dead unc duke", "duplicate edit"},
	}
	for _, tc := range cases {
		if _, err := ev.Resolve("unc", tc.spec, "research", "honey"); err == nil {
			t.Errorf("Resolve(%q) succeeded, want %q", tc.spec, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Resolve(%q) = %v, want %q", tc.spec, err, tc.wantErr)
		}
		if _, err := ev.ImpactOf("unc", tc.spec); err == nil {
			t.Errorf("ImpactOf(%q) succeeded, want error", tc.spec)
		}
	}
	// Unknown vantage host.
	if _, err := ev.Resolve("nosuch", "dead unc duke", "research", "honey"); err == nil {
		t.Error("unknown vantage should error")
	}

	// A link the map deletes keeps its declaration but leaves every
	// snapshot: overriding its cost would silently answer the base
	// route, and adding it would undo the map's own delete.
	deleted := []remap.Input{{Name: "deleted.map", Src: "a\tb(10), c(100)\nc\tb(10)\ndelete {a!b}\n"}}
	_, dev := newEval(t, deleted, Options{})
	for _, spec := range []string{"cost a b 1", "link a b 1"} {
		if addr, err := dev.Resolve("a", spec, "b", "u"); err == nil {
			t.Errorf("Resolve(%q) on a deleted link = %q, want an error", spec, addr)
		} else if !strings.Contains(err.Error(), "a!b is deleted in the map") {
			t.Errorf("Resolve(%q) = %v, want \"deleted in the map\"", spec, err)
		}
	}
	if addr, err := dev.Resolve("a", "dead a b", "b", "u"); err != nil || addr != "c!b!u" {
		t.Errorf("dead on a deleted link = %q, %v; want the base route c!b!u", addr, err)
	}
}

// TestImpactMatchesRebuildDiff: the impact report's changed-host set must
// match a diff of two fresh rebuilds.
func TestImpactMatchesRebuildDiff(t *testing.T) {
	inputs := paperInputs(t)
	forEachStart(t, inputs, []string{"unc"}, func(t *testing.T, ev *Evaluator, _ bool) {
		impactMatchesRebuildDiff(t, inputs, ev)
	})
}

func impactMatchesRebuildDiff(t *testing.T, inputs []remap.Input, ev *Evaluator) {
	imp, err := ev.ImpactOf("unc", "dead unc duke")
	if err != nil {
		t.Fatal(err)
	}
	base := freshEntries(t, inputs, "unc", nil)
	edited := freshEntries(t, inputs, "unc", func(tt testing.TB, g *graph.Graph) {
		a, _ := g.Lookup("unc")
		b, _ := g.Lookup("duke")
		g.DeleteLink(a, b)
	})
	wantChanged := make(map[string]bool)
	bm := map[string]printer.Entry{}
	for _, e := range base {
		bm[e.Host] = e
	}
	em := map[string]printer.Entry{}
	for _, e := range edited {
		em[e.Host] = e
	}
	for h, be := range bm {
		if ee, ok := em[h]; !ok || ee != be {
			wantChanged[h] = true
		}
	}
	for h := range em {
		if _, ok := bm[h]; !ok {
			wantChanged[h] = true
		}
	}
	gotChanged := make(map[string]bool)
	for _, c := range imp.Changed {
		gotChanged[c.Host] = true
	}
	if len(gotChanged) != len(wantChanged) {
		t.Fatalf("impact changed %v, rebuild diff %v", gotChanged, wantChanged)
	}
	for h := range wantChanged {
		if !gotChanged[h] {
			t.Errorf("rebuild diff changes %s, impact does not", h)
		}
	}
	if imp.Stats.Added+imp.Stats.Removed+imp.Stats.Rerouted+imp.Stats.Recosted != len(imp.Changed) {
		t.Errorf("stats %+v inconsistent with %d changes", imp.Stats, len(imp.Changed))
	}
}

// TestIsolationUnderHotSwap: overlay queries never mutate shared state —
// the base engine keeps serving byte-identical tables before, during,
// and after what-if traffic, with concurrent overlays, hot swaps, and
// stats probes all running under the race detector. unc is resident
// (the swapper reads its table), so its overlay runs copy its machine
// while updates re-map it; research and duke are not, so theirs are
// full runs on fresh machines. Both starts must have been taken.
func TestIsolationUnderHotSwap(t *testing.T) {
	inputs := paperInputs(t)
	edited := []remap.Input{{Name: inputs[0].Name, Src: inputs[0].Src + "unc\tresearch(DEMAND)\n"}}
	m, ev := newEval(t, inputs, Options{MaxCached: 4})

	resultFor := func(host string) string {
		r, err := m.ResultFor(host)
		if err != nil {
			t.Errorf("ResultFor(%s): %v", host, err)
			return ""
		}
		return render(r.Entries)
	}
	wantA := resultFor("unc")
	if err := m.Update(edited); err != nil {
		t.Fatal(err)
	}
	wantB := resultFor("unc")
	if err := m.Update(inputs); err != nil {
		t.Fatal(err)
	}
	if wantA == wantB {
		t.Fatal("edit should change unc's table")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Hot-swapper: alternate the two input sets, asserting the served
	// table matches the inputs just applied every time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			in, want := inputs, wantA
			if i%2 == 0 {
				in, want = edited, wantB
			}
			if err := m.Update(in); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
			if got := resultFor("unc"); got != want {
				t.Errorf("base table diverged during what-if traffic (update %d)", i)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Overlay workers: resolve, explain, and impact with a mix of valid
	// and invalid specs from several vantages.
	specs := []string{
		"dead unc duke",
		"dead duke research; cost unc phs 100",
		"link research phs 50",
		"dead nosuch host", // compile error path
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vantages := []string{"unc", "research", "duke"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := vantages[(i+w)%len(vantages)]
				spec := specs[(i*7+w)%len(specs)]
				_, _ = ev.Resolve(v, spec, "ucbvax", "honey")
				if i%3 == 0 {
					if _, err := ev.Explain(v, "", "research"); err != nil {
						t.Errorf("base explain: %v", err)
						return
					}
				}
				if i%5 == 0 {
					if _, err := ev.ImpactOf(v, "dead unc duke"); err != nil &&
						!strings.Contains(err.Error(), "updating too fast") {
						t.Errorf("impact: %v", err)
						return
					}
				}
			}
		}(w)
	}

	// Stats prober.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = ev.Stats()
				_ = m.Generation()
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	// Let the swapper finish, then stop the query load.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	<-done

	// After: the base tables are exactly what the last applied inputs say.
	if err := m.Update(inputs); err != nil {
		t.Fatal(err)
	}
	if got := resultFor("unc"); got != wantA {
		t.Error("base table changed after what-if traffic")
	}
	if st := ev.Stats(); st.WarmRuns == 0 || st.FullRuns == 0 {
		t.Errorf("overlay runs took one start only: %+v", st)
	}
}
