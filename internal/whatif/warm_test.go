package whatif

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pathalias/internal/certify"
	"pathalias/internal/cost"
	"pathalias/internal/graph"
	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/remap"
	"pathalias/internal/simnet"
)

// Overlay runs from a resident vantage start warm from its solved tree;
// these tests pin when they must not, what a warm start saves, and —
// by fuzzing — that either start answers exactly like a fresh run over
// an identically edited map.

// overlayEdit is one hypothetical edit, kept in both forms: the spec
// text the evaluator parses and the edit the fresh-run oracle applies.
type overlayEdit struct {
	op       EditOp
	from, to string
	cost     cost.Cost
}

func (ed overlayEdit) spec() string {
	if ed.op == OpDead {
		return fmt.Sprintf("dead %s %s", ed.from, ed.to)
	}
	return fmt.Sprintf("%s %s %s %d", ed.op, ed.from, ed.to, int64(ed.cost))
}

func specOf(eds []overlayEdit) string {
	parts := make([]string, len(eds))
	for i, ed := range eds {
		parts[i] = ed.spec()
	}
	return strings.Join(parts, "; ")
}

// applyEdits applies the edits to a freshly parsed graph: the source
// edits the overlay hypothesizes.
func applyEdits(eds []overlayEdit) func(tt testing.TB, g *graph.Graph) {
	return func(tt testing.TB, g *graph.Graph) {
		for _, ed := range eds {
			a, _ := g.Lookup(ed.from)
			b, _ := g.Lookup(ed.to)
			switch ed.op {
			case OpDead:
				if !g.DeleteLink(a, b) {
					tt.Fatalf("fresh graph has no link %s!%s", ed.from, ed.to)
				}
			case OpCost:
				l := mustLink(tt, g, ed.from, ed.to)
				g.SetLinkCost(l, ed.cost, l.Op)
			case OpLink:
				g.AddLink(a, b, ed.cost, graph.DefaultOp, 0)
			}
		}
	}
}

// TestOverlayForcedFullRuns: from a resident vantage an overlay run
// starts warm unless the procedure source edits take would also give
// up — the edits invalidate more than a quarter of the labels, or
// the engine maps SecondBest, which has no warm runs. (An overlay edit
// cannot invalidate the root: edge events only reset labels riding the
// edited link, and the root rides none.) Each case must still answer
// like a fresh run.
func TestOverlayForcedFullRuns(t *testing.T) {
	inputs := paperInputs(t)
	sb := mapper.DefaultOptions()
	sb.SecondBest = true
	e16 := []remap.Input{{Name: "e16.map", Src: `a	d1(50), b(100)
.dom	= {caip}(50)
d1	.dom(0)
b	caip(50)
caip	motown(25)
`}}
	cases := []struct {
		name     string
		ropts    remap.Options
		mopts    mapper.Options
		edits    []overlayEdit
		wantWarm bool
		inputs   []remap.Input // the paper map from unc when nil
		host     string
	}{
		// unc!phs carries none of unc's routes: nothing to invalidate.
		{"warm control", remap.Options{}, mapper.DefaultOptions(),
			[]overlayEdit{{op: OpCost, from: "unc", to: "phs", cost: 100}}, true, nil, ""},
		// Every route from unc but phs's rides unc!duke.
		{"past MaxDirtyFrac", remap.Options{}, mapper.DefaultOptions(),
			[]overlayEdit{{op: OpDead, from: "unc", to: "duke"}}, false, nil, ""},
		{"SecondBest", remap.Options{Mapper: &sb}, sb,
			[]overlayEdit{{op: OpCost, from: "unc", to: "phs", cost: 100}}, false, nil, ""},
		// The E16 map: caip and motown hold two labels each, and only
		// the winning one prints.
		{"SecondBest E16", remap.Options{Mapper: &sb, LocalHost: "a"}, sb,
			[]overlayEdit{{op: OpCost, from: "b", to: "caip", cost: 60}}, false, e16, "a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inputs, host := inputs, "unc"
			if tc.inputs != nil {
				inputs, host = tc.inputs, tc.host
			}
			_, ev := newEvalWith(t, inputs, tc.ropts, Options{}, host)
			got := render(overlayEntries(t, ev, host, specOf(tc.edits)))
			st := ev.Stats()
			if warm := st.WarmRuns == 1; warm != tc.wantWarm || st.WarmRuns+st.FullRuns != 1 {
				t.Errorf("runs = %d warm, %d full; want warm=%v", st.WarmRuns, st.FullRuns, tc.wantWarm)
			}
			want, _ := freshRun(t, inputs, host, tc.mopts, applyEdits(tc.edits))
			if got != render(want) {
				t.Errorf("overlay diverges from fresh run\ngot:\n%s\nwant:\n%s", got, render(want))
			}
		})
	}
}

// mixedEdits draws n single-edit overlays over real links, a third each
// dead, cost and link — the what-if benchmark's mix — deterministically
// from rng. Added links go from a host with links to one it has none to.
func mixedEdits(rng *rand.Rand, g *graph.Graph, links []simnet.LinkRef, n int) [][]overlayEdit {
	seen := make(map[string]bool)
	var out [][]overlayEdit
	for len(out) < n {
		l := links[rng.Intn(len(links))]
		ed := overlayEdit{from: l.From, to: l.To}
		switch rng.Intn(3) {
		case 0:
			ed.op = OpDead
		case 1:
			ed.op, ed.cost = OpCost, []cost.Cost{5000, 10000, 25000, 36000}[rng.Intn(4)]
		default:
			ed.op, ed.cost = OpLink, []cost.Cost{10, 25, 100}[rng.Intn(3)]
			ed.to = links[rng.Intn(len(links))].From
			a, _ := g.Lookup(ed.from)
			b, _ := g.Lookup(ed.to)
			if a == b || g.FindLink(a, b) != nil {
				continue
			}
		}
		if s := ed.spec(); !seen[s] {
			seen[s] = true
			out = append(out, []overlayEdit{ed})
		}
	}
	return out
}

func default1986Inputs() ([]remap.Input, string) {
	pins, local := mapgen.Generate(mapgen.Default1986())
	inputs := make([]remap.Input, len(pins))
	for i, in := range pins {
		inputs[i] = remap.Input{Name: in.Name, Src: in.Src}
	}
	return inputs, local
}

// TestWarmOverlayRelaxesLess guards the point of warm overlay runs on
// the paper-scale map: the median run that starts warm from a resident
// vantage relaxes at most a tenth of the edges a full run relaxes. It
// counts work, not time, so a loaded machine cannot flake it. The two
// starts must also agree entry for entry.
func TestWarmOverlayRelaxesLess(t *testing.T) {
	inputs, local := default1986Inputs()
	_, fresh := newEvalWith(t, inputs, remap.Options{}, Options{})
	_, warm := newEvalWith(t, inputs, remap.Options{}, Options{}, local)
	n := 30
	if testing.Short() {
		n = 9
	}
	g := parseFresh(t, inputs)
	specs := mixedEdits(rand.New(rand.NewSource(1986)), g, simnet.OrdinaryLinks(g), n)
	var warmRelax, fullRelax []int64
	for _, eds := range specs {
		spec := specOf(eds)
		sp, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fresh.eval(local, sp)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		w, err := warm.eval(local, sp)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if f.run.Warm {
			t.Fatalf("%s: a vantage that is not resident started warm", spec)
		}
		if render(f.run.Entries) != render(w.run.Entries) {
			t.Fatalf("%s: warm and full starts disagree", spec)
		}
		fullRelax = append(fullRelax, f.run.Relaxations)
		if w.run.Warm {
			warmRelax = append(warmRelax, w.run.Relaxations)
		}
	}
	if len(warmRelax) < len(specs)/2 {
		t.Fatalf("only %d of %d overlay runs started warm", len(warmRelax), len(specs))
	}
	slices.Sort(warmRelax)
	slices.Sort(fullRelax)
	mw, mf := warmRelax[len(warmRelax)/2], fullRelax[len(fullRelax)/2]
	t.Logf("%d of %d runs warm; median relaxations: warm %d, full %d", len(warmRelax), len(specs), mw, mf)
	if mw*10 > mf {
		t.Errorf("median warm run relaxes %d edges, more than a tenth of a full run's %d", mw, mf)
	}
}

// TestWarmOverlayAllocs guards what a warm what-if question copies: on
// the paper-scale map, questions asked from a resident vantage allocate
// at most maxWarmAllocRatio of the bytes the same questions take mapped
// in full on a fresh machine. The warm run clones the machine's labels
// but neither route frames nor route rows; cloning either again would
// push the ratio past the bound. It compares allocated bytes, not
// times, so a loaded machine cannot flake it.
func TestWarmOverlayAllocs(t *testing.T) {
	const maxWarmAllocRatio = 0.78
	inputs, local := default1986Inputs()
	links := simnet.OrdinaryLinks(parseFresh(t, inputs))
	var specs []*Spec
	for i := range 8 {
		l := links[(2*i+1)*len(links)/16]
		sp, err := ParseSpec(fmt.Sprintf("cost %s %s %d", l.From, l.To, 1000+100*i))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	// bytesPerOp asks every spec once per op, straight from the engine
	// (no evaluator cache), and counts the runs that started warm.
	bytesPerOp := func(resident ...string) (int64, int) {
		m, _ := newEvalWith(t, inputs, remap.Options{}, Options{}, resident...)
		warm, fails := 0, 0
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			warm = 0
			for range b.N {
				for _, sp := range specs {
					run, err := m.EvalOverlay(local, func(ctx remap.OverlayCtx) (*graph.Overlay, error) {
						return compile(sp, ctx)
					})
					if err != nil {
						fails++
						continue
					}
					if run.Warm {
						warm++
					}
				}
			}
			warm /= b.N
		})
		if fails > 0 {
			t.Fatalf("%d overlay evaluations failed", fails)
		}
		return r.AllocedBytesPerOp(), warm
	}
	full, fullWarm := bytesPerOp()
	res, resWarm := bytesPerOp(local)
	if fullWarm != 0 || resWarm < len(specs)/2 {
		t.Fatalf("%d of %d runs from a resident vantage and %d from a fresh one started warm", resWarm, len(specs), fullWarm)
	}
	ratio := float64(res) / float64(full)
	t.Logf("%d questions: resident %d B, fresh %d B, ratio %.3f", len(specs), res, full, ratio)
	if ratio > maxWarmAllocRatio {
		t.Errorf("warm questions allocate %.3f of a full run's bytes, over %.2f", ratio, maxWarmAllocRatio)
	}
}

// TestOverlaysLeaveResidentAlone: on the paper-scale map, cold what-if
// questions from a resident vantage, interleaved with warm base edits,
// leave the vantage as they found it, and a cached run stays valid
// while the base moves on. Each step asks dead, cost and link questions
// (among them some that change no row and one that forces a full run),
// then checks that the vantage still serves the route generation and
// entries it had, equal to a fresh run's; then edits the base and
// checks the warm re-map against a fresh run too. Every run is
// re-checked after two later base edits that changed rows: by then the
// resident vantage has overwritten both of its row arrays.
func TestOverlaysLeaveResidentAlone(t *testing.T) {
	inputs, local := default1986Inputs()
	m, ev := newEvalWith(t, inputs, remap.Options{}, Options{}, local)
	g := parseFresh(t, inputs)
	links := simnet.OrdinaryLinks(g)
	var rootLinks []simnet.LinkRef
	for _, l := range links {
		if l.From == local {
			rootLinks = append(rootLinks, l)
		}
	}
	rng := rand.New(rand.NewSource(26))
	linked := make(map[[2]string]bool)
	newPair := func() (string, string) {
		for {
			a, b := links[rng.Intn(len(links))].From, links[rng.Intn(len(links))].To
			x, _ := g.Lookup(a)
			y, _ := g.Lookup(b)
			if a != b && g.FindLink(x, y) == nil && !linked[[2]string{a, b}] {
				linked[[2]string{a, b}] = true
				return a, b
			}
		}
	}

	type heldRun struct {
		spec    string
		run     *remap.OverlayRun
		entries string
		edits   int // row-changing base edits since the run
	}
	var held []heldRun
	steps := 6
	if testing.Short() {
		steps = 2
	}
	noRow, forcedFull, warmEdits, questions := 0, 0, 0, 0
	for step := 0; step < steps; step++ {
		before, err := m.ResultFor(local)
		if err != nil {
			t.Fatal(err)
		}
		want := render(freshEntries(t, inputs, local, nil))
		if got := render(before.Entries); got != want {
			t.Fatalf("step %d: the resident vantage diverges from a fresh run", step)
		}

		firstHops := make(map[string]int)
		for _, en := range before.Entries {
			hop, _, _ := strings.Cut(en.Route, "!")
			firstHops[hop]++
		}
		slices.SortFunc(rootLinks, func(a, b simnet.LinkRef) int { return firstHops[b.To] - firstHops[a.To] })
		var eds [][]overlayEdit
		for range 2 {
			l := links[rng.Intn(len(links))]
			eds = append(eds, []overlayEdit{{op: OpDead, from: l.From, to: l.To}})
			l = links[rng.Intn(len(links))]
			eds = append(eds, []overlayEdit{{op: OpCost, from: l.From, to: l.To, cost: []cost.Cost{10, 5000, 36000}[rng.Intn(3)]}})
			a, b := newPair()
			eds = append(eds, []overlayEdit{{op: OpLink, from: a, to: b, cost: []cost.Cost{25, 40000000}[rng.Intn(2)]}})
		}
		// The root's busiest links dead, until their routes make up a
		// third of the table: more than a warm run may redo.
		var cut []overlayEdit
		for i, rows := 0, 0; i < len(rootLinks) && rows*3 < len(before.Entries); i++ {
			l := rootLinks[i]
			cut = append(cut, overlayEdit{op: OpDead, from: l.From, to: l.To})
			rows += firstHops[l.To]
		}
		eds = append(eds, cut)
		for _, ed := range eds {
			spec := specOf(ed)
			sp, err := ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			ent, err := ev.eval(local, sp)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, spec, err)
			}
			got := render(ent.run.Entries)
			if got != render(freshEntries(t, inputs, local, applyEdits(ed))) {
				t.Fatalf("step %d %s: overlay diverges from a fresh run over the edited map", step, spec)
			}
			if got == want {
				noRow++
			}
			if !ent.run.Warm {
				forcedFull++
			}
			held = append(held, heldRun{spec: spec, run: ent.run, entries: got})
			questions++
		}

		after, err := m.ResultFor(local)
		if err != nil {
			t.Fatal(err)
		}
		if after.RouteGen != before.RouteGen || render(after.Entries) != want {
			t.Fatalf("step %d: questions moved the resident vantage (route generation %d, was %d)", step, after.RouteGen, before.RouteGen)
		}

		// A cheap new link: most such edits re-route someone.
		a, b := newPair()
		last := len(inputs) - 1
		inputs[last].Src += fmt.Sprintf("%s\t%s(%d)\n", a, b, 10)
		if err := m.Update(inputs); err != nil {
			t.Fatal(err)
		}
		res, err := m.ResultFor(local)
		if err != nil {
			t.Fatal(err)
		}
		if res.Incremental {
			warmEdits++
		}
		if render(res.Entries) != render(freshEntries(t, inputs, local, nil)) {
			t.Fatalf("step %d: the base edit %s!%s diverges from a fresh run", step, a, b)
		}
		if res.RouteGen == after.RouteGen {
			continue
		}
		kept := held[:0]
		for _, h := range held {
			if h.edits++; h.edits < 2 {
				kept = append(kept, h)
			} else if render(h.run.Entries) != h.entries {
				t.Fatalf("step %d: the cached run of %q changed under two base edits", step, h.spec)
			}
		}
		held = kept
	}
	t.Logf("%d steps, %d questions: %d changed no row, %d ran full; %d warm base edits", steps, questions, noRow, forcedFull, warmEdits)
	if noRow == 0 || noRow == questions || forcedFull == 0 || warmEdits < steps/2 {
		t.Errorf("the mix missed a case: %d of %d questions changed no row, %d ran full, %d warm base edits", noRow, questions, forcedFull, warmEdits)
	}
}

// fuzzCosts are the costs fuzzed edits draw from: zero, the symbolic
// grades, and the far end of the legal range.
var fuzzCosts = []cost.Cost{0, 1, 10, 300, 500, 3000, 5000, 30000, 40000000}

// decodeEdits turns fuzz bytes into 1–4 valid edits over the map, four
// bytes each: operation, link (two bytes), then cost and, for an added
// link, its target. Edits that would repeat a pair or add an existing
// link are dropped.
func decodeEdits(data []byte, g *graph.Graph, links []simnet.LinkRef) []overlayEdit {
	var eds []overlayEdit
	pairs := make(map[[2]string]bool)
	for len(data) >= 4 && len(eds) < 4 {
		b := data[:4]
		data = data[4:]
		l := links[(int(b[1])<<8|int(b[2]))%len(links)]
		ed := overlayEdit{op: EditOp(b[0] % 3), from: l.From, to: l.To, cost: fuzzCosts[int(b[3])%len(fuzzCosts)]}
		if ed.op == OpLink {
			ed.to = links[int(b[3])*7%len(links)].To
			a, _ := g.Lookup(ed.from)
			x, _ := g.Lookup(ed.to)
			if a == x || g.FindLink(a, x) != nil {
				continue
			}
		}
		if pairs[[2]string{ed.from, ed.to}] {
			continue
		}
		pairs[[2]string{ed.from, ed.to}] = true
		eds = append(eds, ed)
	}
	return eds
}

// FuzzOverlayEquivalence: 1–4 dead/cost/link edits over a small
// generated map, asked from a resident or a non-resident vantage, must
// answer exactly like a fresh run over the identically edited source —
// entries and unreachable hosts — and every overlaid route's explained
// hops must sum to its cost.
func FuzzOverlayEquivalence(f *testing.F) {
	f.Add(int64(1), true, uint8(0), []byte{0, 0, 1, 0})
	f.Add(int64(2), false, uint8(1), []byte{1, 0, 7, 3, 2, 1, 2, 5})
	f.Add(int64(3), true, uint8(1), []byte{2, 0, 9, 2, 0, 3, 1, 0, 1, 4, 4, 8})
	f.Fuzz(func(t *testing.T, seed int64, resident bool, vantage uint8, script []byte) {
		cfg := mapgen.Scaled(40, seed)
		cfg.CoreFiles = 2
		pins, local := mapgen.Generate(cfg)
		inputs := make([]remap.Input, len(pins))
		for i, in := range pins {
			inputs[i] = remap.Input{Name: in.Name, Src: in.Src}
		}
		g := parseFresh(t, inputs)
		links := simnet.OrdinaryLinks(g)
		if len(links) == 0 {
			t.Skip("map has no ordinary links")
		}
		eds := decodeEdits(script, g, links)
		if len(eds) == 0 {
			t.Skip("no valid edit")
		}
		from := local
		if vantage%2 == 1 {
			from = links[int(vantage)%len(links)].From
		}
		var res []string
		if resident {
			res = []string{from}
		}
		_, ev := newEvalWith(t, inputs, remap.Options{}, Options{}, res...)
		spec := specOf(eds)
		sp, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		ent, err := ev.eval(from, sp)
		if err != nil {
			t.Fatalf("%s from %s: %v", spec, from, err)
		}
		if ent.run.Warm && !resident {
			t.Errorf("%s from %s: a vantage that is not resident started warm", spec, from)
		}
		if err := certify.BackLinks(ent.run.Machine, ent.run.Snap, ent.run.Overlay); err != nil {
			t.Fatalf("%s from %s (warm=%v): %v", spec, from, ent.run.Warm, err)
		}
		wantEntries, wantUnreach := freshRun(t, inputs, from, mapper.DefaultOptions(), applyEdits(eds))
		if got, want := render(ent.run.Entries), render(wantEntries); got != want {
			t.Fatalf("%s from %s (warm=%v) diverges from fresh run\ngot:\n%s\nwant:\n%s", spec, from, ent.run.Warm, got, want)
		}
		if got, want := strings.Join(ent.run.Unreachable, " "), strings.Join(wantUnreach, " "); got != want {
			t.Fatalf("%s from %s (warm=%v): unreachable %q, fresh run %q", spec, from, ent.run.Warm, got, want)
		}
		for i, e := range ent.run.Entries {
			if i == 50 {
				break
			}
			x, err := ev.Explain(from, spec, e.Host)
			if err != nil {
				t.Fatalf("explain %s under %s: %v", e.Host, spec, err)
			}
			checkExplanation(t, x.Under, int64(e.Cost))
		}
	})
}
