package remap

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	pipeline "pathalias/internal/core"
	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
)

// renderEntries flattens entries for byte comparison.
func renderEntries(es []printer.Entry) string {
	var sb strings.Builder
	for _, e := range es {
		fmt.Fprintf(&sb, "%d\t%s\t%s\n", int64(e.Cost), e.Host, e.Route)
	}
	return sb.String()
}

// checkEquivalent asserts that the engine's result matches the batch
// pipeline's over the same inputs and options.
func checkEquivalent(t *testing.T, opts Options, inputs []Input, got *Result, label string) {
	t.Helper()
	want, err := pipeline.Run(opts, inputs...)
	if err != nil {
		t.Fatalf("%s: fresh run failed: %v", label, err)
	}
	if g, w := renderEntries(got.Entries), renderEntries(want.Entries); g != w {
		t.Fatalf("%s: entries diverge\nfirst difference:\n%s", label, firstDiff(g, w))
	}
	if g, w := strings.Join(got.Warnings, "\n"), strings.Join(want.Warnings, "\n"); g != w {
		t.Fatalf("%s: warnings diverge\n got: %q\nwant: %q", label, g, w)
	}
	if g, w := strings.Join(got.Unreachable, "\n"), strings.Join(want.Unreachable, "\n"); g != w {
		t.Fatalf("%s: unreachable diverge\n got: %q\nwant: %q", label, g, w)
	}
}

func firstDiff(g, w string) string {
	gl := strings.Split(g, "\n")
	wl := strings.Split(w, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var a, b string
		if i < len(gl) {
			a = gl[i]
		}
		if i < len(wl) {
			b = wl[i]
		}
		if a != b {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q\n(got %d lines, want %d)", i, a, b, len(gl), len(wl))
		}
	}
	return "(no line diff?)"
}

// update brings m to inputs and returns its default vantage's result:
// the single-source use of a Multi.
func update(m *Multi, inputs []Input) (*Result, error) {
	if err := m.Update(inputs); err != nil {
		return nil, err
	}
	return m.ResultFor(m.def)
}

func toInputs(pins []parser.Input) []Input {
	out := make([]Input, len(pins))
	for i, in := range pins {
		out[i] = Input{Name: in.Name, Src: in.Src}
	}
	return out
}

func TestEnginePaperMap(t *testing.T) {
	const src = `unc	duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), research(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND)
ucbvax	research(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
`
	opts := Options{LocalHost: "unc"}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []Input{{Name: "paper.map", Src: src}}
	res, err := update(m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, opts, inputs, res, "initial")

	// A cost edit: the warm path must produce the same bytes as fresh.
	edited := strings.Replace(src, "duke(HOURLY)", "duke(WEEKLY)", 1)
	inputs2 := []Input{{Name: "paper.map", Src: edited}}
	res, err = update(m, inputs2)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, opts, inputs2, res, "cost edit")

	// Revert.
	res, err = update(m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, opts, inputs, res, "revert")
}

// e16Map is the map of the paper's PROBLEMS figure (TestExperiment16SecondBest):
// under SecondBest, caip holds a winning domain-tainted label and a clean
// one, and motown hangs off the clean one.
const e16Map = `a	d1(50), b(100)
.dom	= {caip}(50)
d1	.dom(0)
b	caip(50)
caip	motown(25)
`

// TestEngineSecondBest holds the engine's SecondBest rows to a fresh
// run's: a node with two labels prints once, under its winning label.
// The non-winning caip and motown labels carry children only.
func TestEngineSecondBest(t *testing.T) {
	mopts := mapper.DefaultOptions()
	mopts.SecondBest = true
	opts := Options{LocalHost: "a", Mapper: &mopts}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	const want = `50	.dom	d1!%s
0	a	%s
100	b	b!%s
50	caip.dom	d1!caip.dom!%s
50	d1	d1!%s
175	motown	b!caip!motown!%s
`
	for _, src := range []string{e16Map, strings.Replace(e16Map, "b(100)", "b(110)", 1)} {
		inputs := []Input{{Name: "e16.map", Src: src}}
		res, err := update(m, inputs)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalent(t, opts, inputs, res, "e16")
		if src == e16Map {
			if got := renderEntries(res.Entries); got != want {
				t.Errorf("e16 rows:\n%s\nwant:\n%s", got, want)
			}
		}
	}
}

func TestEngineSmallMapgen(t *testing.T) {
	pins, local := mapgen.Generate(mapgen.Small())
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
	if res.Incremental {
		t.Fatal("first update cannot be incremental")
	}

	// Identical update: served from cache.
	res2, err := update(m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Fatal("unchanged update should return the cached result")
	}

	// Single-line cost edit in one file: warm path.
	edited := strings.Replace(pins[0].Src, "(DEMAND)", "(WEEKLY)", 1)
	if edited == pins[0].Src {
		t.Fatal("test edit found nothing to replace")
	}
	in3 := toInputs(pins)
	in3[0].Src = edited
	res3, err := update(m, in3)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, opts, in3, res3, "cost edit")
	if !res3.Incremental {
		t.Error("single cost edit should take the warm path")
	}
}

// TestEngineAvoid covers the avoid list: the penalty must apply to
// avoided hosts that appear, disappear, and reappear across updates,
// and the unknown-host warning must track the current input set.
func TestEngineAvoid(t *testing.T) {
	opts := Options{LocalHost: "a", Avoid: []string{"b", "nosuch"}}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	base := "a\tb(10), c(100)\nb\tc(10)\nc\td(10)\n"
	in := []Input{{Name: "m", Src: base}}
	res, err := update(m, in)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, opts, in, res, "avoid initial")

	// Drop b entirely; the avoided name becomes unknown.
	in2 := []Input{{Name: "m", Src: "a\tc(100)\nc\td(10)\n"}}
	res, err = update(m, in2)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, opts, in2, res, "avoid removed")

	// Reintroduce b (resurrection must restore the penalty).
	res, err = update(m, in)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, opts, in, res, "avoid back")
}

// TestEngineRepeatedNamesDoNotPoisonFastPath: after an input set that
// repeats a name, reverting to the previous input set must recompute,
// not serve the repeated-name run's cached result.
func TestEngineRepeatedNamesDoNotPoisonFastPath(t *testing.T) {
	opts := Options{LocalHost: "a"}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	base := []Input{{Name: "m", Src: "a\tb(10)\n"}}
	res, err := update(m, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("base entries = %d", len(res.Entries))
	}
	// Repeated input name: the journal rebuilds, extra host c.
	dup := []Input{{Name: "m", Src: "a\tb(10)\n"}, {Name: "m", Src: "b\tc(10)\n"}}
	res, err = update(m, dup)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("dup entries = %d", len(res.Entries))
	}
	checkEquivalent(t, opts, dup, res, "repeated name")
	// Revert: must match a fresh run over base, not the dup result.
	res, err = update(m, base)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, opts, base, res, "revert after a repeated name")
}

// mutator carries mutateMap's state between steps: the counter naming
// brand-new hosts and files, and the inputs a remove-then-restore edit
// puts back on the following step.
type mutator struct {
	nextID  int
	restore []Input
}

// mutateMap applies one random edit to a copy of the inputs: cost
// change, line removal, removal of a lone host's only line (put back on
// the next step, so the host turns into a ghost and returns), a new
// statement appended to a file or inserted mid-file, a link line
// duplicated elsewhere in its own file, file removal, file reorder, file
// addition (every other time under an existing file's name, taken out
// again on the next step: the engine rebuilds its journal for both). The
// new statements cover every journal kind: links (new host or between
// existing ones), adjust, alias, network, dead and delete (host and
// link) and gateway declarations, so the edits reach both
// statement-range patches and the whole-file path.
// addHost reports that the edit only introduced a brand-new host (plus
// its link) — an edit the engine must keep on the warm path.
func mutateMap(rng *rand.Rand, inputs []Input, mu *mutator) (_ []Input, addHost bool) {
	if mu.restore != nil {
		out := mu.restore
		mu.restore = nil
		return out, false
	}
	out := make([]Input, len(inputs))
	copy(out, inputs)
	costs := []string{"DEMAND", "HOURLY", "DAILY", "WEEKLY", "EVENING", "DIRECT", "POLLED"}
	cost := func() string { return costs[rng.Intn(len(costs))] }
	// Hosts below 40 serve as vantages and local hosts; dead and delete
	// declarations pick from the others.
	far := func() int { return 40 + rng.Intn(260) }
	switch k := rng.Intn(12); {
	case k < 4: // cost edit on a random line
		i := rng.Intn(len(out))
		lines := strings.Split(out[i].Src, "\n")
		for try := 0; try < 10; try++ {
			ln := rng.Intn(len(lines))
			if o := strings.LastIndexByte(lines[ln], '('); o > 0 && strings.HasSuffix(lines[ln], ")") {
				lines[ln] = lines[ln][:o] + "(" + cost() + ")"
				break
			}
		}
		out[i].Src = strings.Join(lines, "\n")
	case k < 5 && removeLoneHost(rng, out): // a ghost, restored next step
		mu.restore = inputs
	case k < 6: // remove a random line
		i := rng.Intn(len(out))
		lines := strings.Split(out[i].Src, "\n")
		if len(lines) > 2 {
			ln := rng.Intn(len(lines))
			lines = append(lines[:ln], lines[ln+1:]...)
			out[i].Src = strings.Join(lines, "\n")
		}
	case k < 9: // a new statement, appended or inserted mid-file
		i := rng.Intn(len(out))
		id := mu.nextID
		mu.nextID++
		var add string
		switch rng.Intn(10) {
		case 0:
			add = fmt.Sprintf("newhost%d\thost%d(%s)", id, rng.Intn(40), cost())
			addHost = true
		case 1:
			add = fmt.Sprintf("host%d\thost%d(%s)", rng.Intn(40), rng.Intn(300), cost())
		case 2:
			add = fmt.Sprintf("adjust {host%d(+%d)}", rng.Intn(40), 5+rng.Intn(50))
		case 3:
			add = fmt.Sprintf("dead {host%d}", rng.Intn(300))
		case 4:
			add = fmt.Sprintf("host%d\t= aka%d", rng.Intn(300), id)
		case 5:
			add = fmt.Sprintf("fnet%d = {host%d, host%d, host%d}(%s)",
				rng.Intn(4), rng.Intn(300), rng.Intn(300), rng.Intn(300), cost())
		case 6:
			if from, to, ok := randomLink(rng, out[i].Src); ok {
				add = fmt.Sprintf("dead {%s!%s}", from, to)
			} else {
				add = fmt.Sprintf("dead {host%d!host%d}", far(), far())
			}
		case 7:
			if from, to, ok := randomLink(rng, out[i].Src); ok && rng.Intn(2) == 0 {
				add = fmt.Sprintf("delete {%s!%s}", from, to)
			} else {
				add = fmt.Sprintf("delete {host%d}", far())
			}
		case 8:
			add = fmt.Sprintf("gateway {%s!host%d}", []string{"ARPANET", "CSNET"}[rng.Intn(2)], rng.Intn(300))
		default:
			add = fmt.Sprintf("gatewayed {fnet%d}", rng.Intn(4))
		}
		lines := strings.Split(out[i].Src, "\n")
		ln := len(lines)
		if rng.Intn(2) == 0 {
			ln = rng.Intn(len(lines))
		}
		lines = append(lines[:ln], append([]string{add}, lines[ln:]...)...)
		out[i].Src = strings.Join(lines, "\n")
	case k < 10: // duplicate a link line elsewhere in its own file
		i := rng.Intn(len(out))
		lines := strings.Split(out[i].Src, "\n")
		for try := 0; try < 10; try++ {
			l := lines[rng.Intn(len(lines))]
			if o := strings.LastIndexByte(l, '('); o > 0 && strings.HasSuffix(l, ")") && strings.Contains(l, "\t") {
				if rng.Intn(2) == 0 {
					l = l[:o] + "(" + cost() + ")" // a duplicate that may win on cost
				}
				ln := rng.Intn(len(lines) + 1)
				lines = append(lines[:ln], append([]string{l}, lines[ln:]...)...)
				break
			}
		}
		out[i].Src = strings.Join(lines, "\n")
	case k < 11 && len(out) > 2: // drop a whole file (never the first: it holds the local host)
		i := 1 + rng.Intn(len(out)-1)
		out = append(out[:i], out[i+1:]...)
	case k < 12 && len(out) > 2 && rng.Intn(2) == 0: // shuffle file order
		i := 1 + rng.Intn(len(out)-1)
		j := 1 + rng.Intn(len(out)-1)
		out[i], out[j] = out[j], out[i]
	default: // add a whole new file
		id := mu.nextID
		mu.nextID++
		name := fmt.Sprintf("extra%d.map", id)
		if rng.Intn(2) == 0 {
			name = out[rng.Intn(len(out))].Name
			mu.restore = inputs
		}
		out = append(out, Input{
			Name: name,
			Src:  fmt.Sprintf("exhost%d\thost%d(%s)\n", id, rng.Intn(40), cost()),
		})
	}
	return out, addHost
}

// randomLink returns the endpoints of a random single-link declaration
// line ("from<TAB>to(cost)") of src.
func randomLink(rng *rand.Rand, src string) (from, to string, ok bool) {
	lines := strings.Split(src, "\n")
	for try := 0; try < 10; try++ {
		l := lines[rng.Intn(len(lines))]
		from, rest, found := strings.Cut(l, "\t")
		o := strings.IndexByte(rest, '(')
		if !found || o <= 0 || strings.ContainsAny(rest[:o], ",!@%:= {") || strings.ContainsAny(from, " {") {
			continue
		}
		return from, rest[:o], true
	}
	return "", "", false
}

// removeLoneHost removes, from a random file of out, a random line
// declaring a host that no other line names, and reports whether it
// found one. Such a host has no other declaration, so the removal
// leaves it a ghost.
func removeLoneHost(rng *rand.Rand, out []Input) bool {
	isName := func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '-' || r == '.' || r == '_')
	}
	lines := make(map[string]int) // name -> number of lines naming it
	for _, in := range out {
		for _, l := range strings.Split(in.Src, "\n") {
			seen := make(map[string]bool)
			for _, f := range strings.FieldsFunc(l, isName) {
				if !seen[f] {
					seen[f] = true
					lines[f]++
				}
			}
		}
	}
	type loc struct{ file, line int }
	var lone []loc
	for i, in := range out {
		for ln, l := range strings.Split(in.Src, "\n") {
			if h, _, ok := strings.Cut(l, "\t"); ok && lines[h] == 1 {
				lone = append(lone, loc{i, ln})
			}
		}
	}
	if len(lone) == 0 {
		return false
	}
	at := lone[rng.Intn(len(lone))]
	src := strings.Split(out[at.file].Src, "\n")
	out[at.file].Src = strings.Join(append(src[:at.line], src[at.line+1:]...), "\n")
	return true
}

// TestEngineRandomizedEquivalence drives the engine through random edit
// sequences — including root-adjacent edits and structural changes —
// asserting byte-identical output against a fresh run at every step,
// under the default printer options and each one that changes what a
// row holds or where it sorts.
func TestEngineRandomizedEquivalence(t *testing.T) {
	steps := 40
	if testing.Short() {
		steps = 12
	}
	printOpts := []struct {
		name string
		opts printer.Options
	}{
		{"", printer.Options{}},
		{"-firsthop", printer.Options{FirstHopCost: true}},
		{"-domains", printer.Options{DomainsOnly: true}},
		{"-firsthop-domains", printer.Options{FirstHopCost: true, DomainsOnly: true}},
	}
	for _, po := range printOpts {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("seed%d%s", seed, po.name), func(t *testing.T) {
				randomizedEquivalence(t, seed, steps, po.opts)
			})
		}
	}
}

func randomizedEquivalence(t *testing.T, seed int64, steps int, popts printer.Options) {
	rng := rand.New(rand.NewSource(seed))
	cfg := mapgen.Small()
	cfg.Seed = seed
	cfg.CoreFiles = 4
	pins, local := mapgen.Generate(cfg)
	// Four Ps exercise the parallel fragment re-scan under the race
	// detector.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	opts := Options{LocalHost: local, Printer: popts}
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
	if err := VerifyBackLinks(m); err != nil {
		t.Fatalf("initial (seed %d): %v", seed, err)
	}

	var mu mutator
	warm := 0
	for step := 0; step < steps; step++ {
		var addHost bool
		inputs, addHost = mutateMap(rng, inputs, &mu)
		fullBefore := m.Stats().FullRemaps
		res, err = update(m, inputs)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if res.Incremental {
			warm++
		}
		// Host-add edits must stay on the warm path: growth is a
		// rank re-base, not a rebuild.
		if addHost && (!res.Incremental || m.Stats().FullRemaps != fullBefore) {
			t.Fatalf("step %d (seed %d): host-add edit re-mapped fully (stats %+v)",
				step, seed, m.Stats())
		}
		checkEquivalent(t, opts, inputs, res, fmt.Sprintf("step %d (seed %d)", step, seed))
		if err := m.e.verifyLedger(); err != nil {
			t.Fatalf("step %d (seed %d): ledger: %v", step, seed, err)
		}
		if err := VerifyBackLinks(m); err != nil {
			t.Fatalf("step %d (seed %d): %v", step, seed, err)
		}
	}
	t.Logf("seed %d: %d/%d steps warm (stats %+v)", seed, warm, steps, m.Stats())
}
