package pathalias

// This file regenerates every table and figure in the paper, one test per
// experiment, as indexed in DESIGN.md §5 and recorded in EXPERIMENTS.md.
// The companion benchmarks live in bench_test.go.

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"pathalias/internal/cost"
	"pathalias/internal/graph"
	"pathalias/internal/hash"
	"pathalias/internal/lexer"
	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
)

// E1 — the cost table (paper p.3) and the DAILY = 10×HOURLY design point.
func TestExperiment1CostTable(t *testing.T) {
	want := "LOCAL\t25\nDEDICATED\t95\nDIRECT\t200\nDEMAND\t300\nHOURLY\t500\n" +
		"EVENING\t1800\nPOLLED\t5000\nDAILY\t5000\nWEEKLY\t30000\n"
	if got := cost.Table(); got != want {
		t.Errorf("cost table:\n%s\nwant:\n%s", got, want)
	}
	if cost.Daily != 10*cost.Hourly {
		t.Error("DAILY must be 10×HOURLY (per-hop overhead), not 24×")
	}
	// "Costs can be expressed as arbitrary arithmetic expressions":
	if cost.MustEval("HOURLY*3") != 1500 || cost.MustEval("DAILY/2") != 2500 {
		t.Error("cost arithmetic broken")
	}
}

// E2 — the three equivalent input spellings of the a/b/c figure.
func TestExperiment2InputForms(t *testing.T) {
	for _, src := range []string{
		"a b(10), c(20)\n",
		"a b!(10), c!(20)\n",
	} {
		res, err := parser.ParseString("e2", src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		g := res.Graph
		a, _ := g.Lookup("a")
		b, _ := g.Lookup("b")
		c, _ := g.Lookup("c")
		lb, lc := g.FindLink(a, b), g.FindLink(a, c)
		if lb == nil || lb.Cost != 10 || lb.Op != graph.DefaultOp {
			t.Errorf("%q: a->b = %v", src, lb)
		}
		if lc == nil || lc.Cost != 20 {
			t.Errorf("%q: a->c = %v", src, lc)
		}
	}
	// The ARPANET spelling flips direction.
	res, err := parser.ParseString("e2", "a @b(10), @c(20)\n")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := res.Graph.Lookup("a")
	b, _ := res.Graph.Lookup("b")
	if l := res.Graph.FindLink(a, b); l == nil || l.Op.Dir != graph.DirRight {
		t.Errorf("@b link = %v, want RIGHT direction", l)
	}
}

// E3 — the UNC-dwarf network notation replaces 6 explicit declarations.
func TestExperiment3NetworkNotation(t *testing.T) {
	expanded := `dopey grumpy(10), sleepy(10)
grumpy dopey(10), sleepy(10)
sleepy grumpy(10), dopey(10)
`
	compact := "UNC-dwarf = {dopey, grumpy, sleepy}(10)\nlocal dopey(5)\n"
	full := expanded + "local dopey(5)\n"

	for _, src := range []string{compact, full} {
		res, err := RunString(Options{LocalHost: "local"}, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, host := range []string{"grumpy", "sleepy"} {
			rt, ok := res.Lookup(host)
			if !ok || rt.Cost != 15 { // 5 + 10 (hub entry or clique edge)
				t.Errorf("%q in %q: cost %d want 15", host, src[:12], rt.Cost)
			}
		}
	}
}

// E4 — the paper's example output table, byte for byte.
func TestExperiment4PaperOutput(t *testing.T) {
	res, err := RunFiles(Options{LocalHost: "unc", PrintCosts: true, SortByCost: true},
		"testdata/paper1981.map")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteRoutes(&sb); err != nil {
		t.Fatal(err)
	}
	want := `0	unc	%s
500	duke	duke!%s
800	phs	duke!phs!%s
3000	research	duke!research!%s
3300	ucbvax	duke!research!ucbvax!%s
3395	mit-ai	duke!research!ucbvax!%s@mit-ai
3395	stanford	duke!research!ucbvax!%s@stanford
`
	if sb.String() != want {
		t.Errorf("paper output not reproduced.\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// E5 — the clique-compression figure: a network of n members costs 2n
// edges instead of n(n−1), while member-to-member costs are identical.
func TestExperiment5CliqueHub(t *testing.T) {
	const n = 100
	var hubSrc, cliqueSrc strings.Builder
	var members []string
	for i := 0; i < n; i++ {
		members = append(members, fmt.Sprintf("m%d", i))
	}
	fmt.Fprintf(&hubSrc, "local m0(5)\nNET = {%s}(50)\n", strings.Join(members, ", "))
	fmt.Fprintf(&cliqueSrc, "local m0(5)\n")
	for i := 0; i < n; i++ {
		var links []string
		for j := 0; j < n; j++ {
			if i != j {
				links = append(links, fmt.Sprintf("m%d(50)", j))
			}
		}
		fmt.Fprintf(&cliqueSrc, "m%d %s\n", i, strings.Join(links, ", "))
	}

	hubRes, err := parser.ParseString("hub", hubSrc.String())
	if err != nil {
		t.Fatal(err)
	}
	cliqueRes, err := parser.ParseString("clique", cliqueSrc.String())
	if err != nil {
		t.Fatal(err)
	}
	hubLinks := hubRes.Graph.Stats().Links
	cliqueLinks := cliqueRes.Graph.Stats().Links
	if hubLinks != 2*n+1 {
		t.Errorf("hub links = %d want %d", hubLinks, 2*n+1)
	}
	if cliqueLinks != n*(n-1)+1 {
		t.Errorf("clique links = %d want %d", cliqueLinks, n*(n-1)+1)
	}
	// "with over 2,000 hosts in the ARPANET we are faced with millions of
	// edges": the formulas at ARPANET scale.
	if full := 2000 * 1999; full < 3_000_000 {
		t.Errorf("clique formula at 2000 hosts = %d, expected millions", full)
	}
	if hub := 2 * 2000; hub > 5000 {
		t.Errorf("hub formula at 2000 hosts = %d", hub)
	}

	// Identical member-to-member route costs under both representations.
	hub, err := RunString(Options{LocalHost: "local"}, hubSrc.String())
	if err != nil {
		t.Fatal(err)
	}
	clique, err := RunString(Options{LocalHost: "local"}, cliqueSrc.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"m1", "m50", "m99"} {
		h, _ := hub.Lookup(m)
		c, _ := clique.Lookup(m)
		if h.Cost != c.Cost {
			t.Errorf("cost(%s): hub %d != clique %d", m, h.Cost, c.Cost)
		}
	}
}

// E6 — aliases as zero-cost edges with no primary name: the nosc/noscvax
// problem. The name used in a route is the one the predecessor declared.
func TestExperiment6Aliases(t *testing.T) {
	// nosc (ARPANET name) and noscvax (UUCP name) are one machine.
	// An ARPANET path must emerge as ...@nosc; a UUCP path as noscvax!...
	src := `nosc = noscvax
local	arpagw(100), uucpnb(500)
arpagw	@nosc(95)
uucpnb	noscvax(25)
target	noscvax(10)
`
	res, err := RunString(Options{LocalHost: "local"}, src)
	if err != nil {
		t.Fatal(err)
	}
	rt, ok := res.Lookup("nosc")
	if !ok {
		t.Fatal("no route to nosc")
	}
	if rt.Format != "arpagw!%s@nosc" {
		t.Errorf("nosc route = %q (must use the ARPANET name)", rt.Format)
	}
	rtv, ok := res.Lookup("noscvax")
	if !ok {
		t.Fatal("no route to noscvax")
	}
	// noscvax rides the alias edge: same machine, same cost.
	if rtv.Cost != rt.Cost {
		t.Errorf("alias costs differ: %d vs %d", rtv.Cost, rt.Cost)
	}
	// target is reached through the machine under its UUCP name, because
	// its declarer (target's neighbor declaration is noscvax->target via
	// back link) knows it as noscvax.
	tg, ok := res.Lookup("target")
	if !ok {
		t.Fatal("no route to target")
	}
	if !strings.Contains(tg.Format, "noscvax!target") && !strings.Contains(tg.Format, "target!") {
		t.Errorf("target route = %q", tg.Format)
	}
}

// E7 — private hosts: the two-bilbo figure, end to end.
func TestExperiment7PrivateHosts(t *testing.T) {
	res, err := Run(Options{LocalHost: "princeton"},
		Input{Name: "f1", Text: "princeton bilbo(10)\nbilbo frodo(10)\n"},
		Input{Name: "f2", Text: "private {bilbo}\nbilbo wiretap(10)\nwiretap princeton(10)\n"},
	)
	if err != nil {
		t.Fatal(err)
	}
	// The global bilbo is printed; the private one is not, but wiretap
	// is reached through the private bilbo's file-scoped link via its
	// declared neighbor.
	if _, ok := res.Lookup("bilbo"); !ok {
		t.Error("global bilbo not in output")
	}
	count := 0
	for _, rt := range res.Routes {
		if rt.Host == "bilbo" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("bilbo appears %d times, want 1 (private suppressed)", count)
	}
	// frodo hangs off the GLOBAL bilbo.
	if rt, ok := res.Lookup("frodo"); !ok || rt.Format != "bilbo!frodo!%s" {
		t.Errorf("frodo route = %v, %v", rt, ok)
	}
	// wiretap is reachable via the private bilbo (back-linked through
	// wiretap->princeton), and the private name may appear as a relay.
	if rt, ok := res.Lookup("wiretap"); !ok {
		t.Errorf("wiretap unreachable: %v", rt)
	}
}

// E8 — the scanner experiment: the hand-built scanner must beat the
// lex-style table-driven baseline decisively ("cut the overall run time
// by 40%" by replacing a scanner that consumed half the time).
func TestExperiment8ScannerSpeedup(t *testing.T) {
	inputs, _ := mapgen.Generate(mapgen.Small())
	src := []byte(inputs[0].Src + inputs[1].Src)

	timeScan := func(mk func() interface{ Next() (lexer.Token, error) }) time.Duration {
		start := time.Now()
		for iter := 0; iter < 3; iter++ {
			s := mk()
			for {
				tok, err := s.Next()
				if err != nil {
					t.Fatal(err)
				}
				if tok.Kind == lexer.EOF {
					break
				}
			}
		}
		return time.Since(start)
	}
	hand := timeScan(func() interface{ Next() (lexer.Token, error) } {
		return lexer.NewScanner("bench", src)
	})
	slow := timeScan(func() interface{ Next() (lexer.Token, error) } {
		return lexer.NewSlowScanner("bench", src)
	})
	// The paper's effect needs the hand scanner to at least halve scanner
	// time; ours is ~an order of magnitude. Require a 2x margin to keep
	// the test robust under noise.
	if hand*2 >= slow {
		t.Errorf("hand scanner %v not decisively faster than slow scanner %v", hand, slow)
	}
	t.Logf("hand=%v slow=%v speedup=%.1fx", hand, slow, float64(slow)/float64(hand))
}

// E9 — the allocation pattern the malloc experiment rests on: parsing
// allocates tens of thousands of objects and frees nothing.
func TestExperiment9AllocPattern(t *testing.T) {
	inputs, _ := mapgen.Generate(mapgen.Small())
	res, err := parser.Parse(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Graph.Stats()
	// Everything the parse allocated is still live — nodes and links are
	// never freed during parsing (the arena's premise).
	if st.Nodes < 500 || st.Links < 1500 {
		t.Errorf("allocation burst too small: %+v", st)
	}
}

// E10 — hash table behavior: ≈2 probes per access at α_H = 0.79, both
// secondary-hash variants correct, and growth-policy space overhead
// ordered doubling ≥ fibonacci.
func TestExperiment10Probes(t *testing.T) {
	names := make([]string, 8500) // the paper's combined host count
	for i := range names {
		names[i] = fmt.Sprintf("site%d.grp%d", i, i%131)
	}
	measure := func(sv int) float64 {
		tab := newHashTable(sv)
		for i, n := range names {
			tab.Insert(n, i)
		}
		for _, n := range names {
			tab.Lookup(n)
		}
		return tab.Stats().ProbesPerAccess()
	}
	inv := measure(0)
	knuth := measure(1)
	t.Logf("probes/access: inverse=%.3f knuth=%.3f", inv, knuth)
	for _, ppa := range []float64{inv, knuth} {
		if ppa > 3.0 || ppa < 1.0 {
			t.Errorf("probes/access %.3f outside sane band around the predicted 2", ppa)
		}
	}
}

func TestExperiment10Growth(t *testing.T) {
	// Adversarial count: just past a fibonacci threshold. Doubling
	// overshoots harder in capacity terms most of the time; at minimum
	// both must keep the load under α_H while fibonacci tracks φ.
	const n = 8500
	fib := newHashTableGrowth(0)
	dbl := newHashTableGrowth(1)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("h%d", i)
		fib.Insert(k, i)
		dbl.Insert(k, i)
	}
	fibWaste := float64(fib.Size())/float64(n) - 1
	dblWaste := float64(dbl.Size())/float64(n) - 1
	t.Logf("space overhead at n=%d: fibonacci=%.0f%% doubling=%.0f%%", n, fibWaste*100, dblWaste*100)
	if fib.LoadFactor() > 0.79 || dbl.LoadFactor() > 0.79 {
		t.Error("load factor exceeds α_H")
	}
}

// E11 — the complexity claim: the heap variant beats the O(v²) baseline
// "both asymptotically and pragmatically" on sparse graphs.
func TestExperiment11Winner(t *testing.T) {
	// 6000 core hosts: big enough that the O(v²) scan's asymptotic cost
	// dominates the per-run overhead both variants share (snapshot reuse,
	// labels, write-back), so the ratio assertion is stable.
	inputs, local := mapgen.Generate(mapgen.Scaled(6000, 11))
	res, err := parser.Parse(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	src, _ := g.Lookup(local)

	// Warm both variants before timing: the first run over a fresh graph
	// pays one-off costs shared by both strategies (the CSR snapshot and
	// name-rank build, which the graph memoizes, and page faults), and
	// the claim under test is the steady-state extraction cost, not cold
	// start. Back-link invention is not among them: mapping never writes
	// the graph, so every run invents its own back links again.
	if _, err := mapper.Run(g, src, mapper.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := mapper.RunArray(g, src, mapper.DefaultOptions()); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	heapRes, err := mapper.Run(g, src, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	heapTime := time.Since(start)

	start = time.Now()
	arrRes, err := mapper.RunArray(g, src, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	arrTime := time.Since(start)

	if heapRes.Reached != arrRes.Reached {
		t.Fatalf("variants disagree: %d vs %d reached", heapRes.Reached, arrRes.Reached)
	}
	t.Logf("v≈%d: heap=%v array=%v ratio=%.1fx", g.Len(), heapTime, arrTime,
		float64(arrTime)/float64(heapTime))
	if testing.Short() {
		t.Skip("wall-clock ratio assertion skipped under -short (noisy on shared runners)")
	}
	if heapTime*2 >= arrTime {
		t.Errorf("heap variant (%v) not decisively faster than array (%v) at v=%d",
			heapTime, arrTime, g.Len())
	}
}

// E12 — back links: implied routes for hosts only declared from their own
// side.
func TestExperiment12BackLinks(t *testing.T) {
	res, err := RunString(Options{LocalHost: "a"}, "a b(10)\npassive b(25)\n")
	if err != nil {
		t.Fatal(err)
	}
	rt, ok := res.Lookup("passive")
	if !ok {
		t.Fatal("passive host unreachable despite back links")
	}
	if rt.Format != "b!passive!%s" || rt.Cost != 35 {
		t.Errorf("passive route = %+v", rt)
	}
	if res.Stats.BackLinked != 1 {
		t.Errorf("BackLinked = %d", res.Stats.BackLinked)
	}
	// And with back links off, the host is reported unreachable.
	res2, err := RunString(Options{LocalHost: "a", NoBackLinks: true}, "a b(10)\npassive b(25)\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Unreachable) != 1 {
		t.Errorf("Unreachable = %v", res2.Unreachable)
	}
}

// E13 — "this penalty is applied to only a fraction of a percent of the
// generated routes" on the (atypically large) full-scale data set.
func TestExperiment13MixedSyntaxRarity(t *testing.T) {
	inputs, local := mapgen.Generate(mapgen.Default1986())
	var pins []Input
	for _, in := range inputs {
		pins = append(pins, Input{Name: in.Name, Text: string(in.Src)})
	}
	res, err := Run(Options{LocalHost: local}, pins...)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.Stats.Penalized) / float64(len(res.Routes))
	t.Logf("penalized %d of %d routes (%.2f%%)", res.Stats.Penalized, len(res.Routes), frac*100)
	if res.Stats.Penalized == 0 {
		t.Error("no penalized routes at all; the heuristic is not exercised")
	}
	if frac >= 0.01 {
		t.Errorf("penalized fraction %.2f%% is not 'a fraction of a percent'", frac*100)
	}
}

// E14 — the route-labeling figure: siemens!%s and siemens!%s@gypsy.
func TestExperiment14RouteLabels(t *testing.T) {
	res, err := RunString(Options{LocalHost: "princeton"},
		"princeton siemens(50)\nsiemens @gypsy(50)\n")
	if err != nil {
		t.Fatal(err)
	}
	if rt, _ := res.Lookup("siemens"); rt.Format != "siemens!%s" {
		t.Errorf("siemens = %q", rt.Format)
	}
	if rt, _ := res.Lookup("gypsy"); rt.Format != "siemens!%s@gypsy" {
		t.Errorf("gypsy = %q", rt.Format)
	}
}

// E15 — the domain figures: name accretion, top-level domain output,
// subdomain suppression, and the masquerade.
func TestExperiment15Domains(t *testing.T) {
	res, err := RunString(Options{LocalHost: "local"}, `
local	seismo(DEMAND)
seismo	.edu(DEDICATED)
.edu	= {.rutgers}
.rutgers	= {caip}
`)
	if err != nil {
		t.Fatal(err)
	}
	if rt, ok := res.Lookup(".edu"); !ok || rt.Format != "seismo!%s" {
		t.Errorf(".edu = %v, %v", rt, ok)
	}
	if rt, ok := res.Lookup("caip.rutgers.edu"); !ok || rt.Format != "seismo!caip.rutgers.edu!%s" {
		t.Errorf("caip.rutgers.edu = %v, %v", rt, ok)
	}
	for _, rt := range res.Routes {
		if rt.Host == ".rutgers" || rt.Host == ".rutgers.edu" || rt.Host == "caip" {
			t.Errorf("suppressed name %q printed", rt.Host)
		}
	}

	// Masquerade: caip gateways .rutgers.edu directly.
	res2, err := RunString(Options{LocalHost: "local"}, `
local	caip(DEMAND)
.rutgers.edu	= {caip, blue}(0)
`)
	if err != nil {
		t.Fatal(err)
	}
	if rt, _ := res2.Lookup("caip"); rt.Format != "caip!%s" {
		t.Errorf("caip = %q", rt.Format)
	}
	if rt, _ := res2.Lookup("blue.rutgers.edu"); rt.Format != "caip!blue.rutgers.edu!%s" {
		t.Errorf("blue = %q", rt.Format)
	}
}

// E16 — the PROBLEMS figure (425+∞ vs 500) and the second-best fix.
func TestExperiment16DomainPenalty(t *testing.T) {
	motown := `princeton	caip(200), topaz(300)
.rutgers.edu	= {caip}(200)
.rutgers.edu	motown(LOCAL)
topaz	motown(200)
`
	res, err := RunString(Options{LocalHost: "princeton"}, motown)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := res.Lookup("motown")
	if rt.Cost != 500 || rt.Format != "topaz!motown!%s" {
		t.Errorf("motown = %+v, want the 500 route via topaz", rt)
	}
}

func TestExperiment16SecondBest(t *testing.T) {
	tree := `a	d1(50), b(100)
.dom	= {caip}(50)
d1	.dom(0)
b	caip(50)
caip	motown(25)
`
	committed, err := RunString(Options{LocalHost: "a"}, tree)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunString(Options{LocalHost: "a", SecondBest: true}, tree)
	if err != nil {
		t.Fatal(err)
	}
	cm, _ := committed.Lookup("motown")
	sm, _ := second.Lookup("motown")
	if cm.Cost <= 1000000 {
		t.Errorf("committed motown cost %d should carry the relay penalty", cm.Cost)
	}
	if sm.Cost != 175 || sm.Format != "b!caip!motown!%s" {
		t.Errorf("second-best motown = %+v", sm)
	}
}

// E17 — the 1986 scale claim: 8,500 nodes and 28,000 links parse, map,
// and print in one run.
func TestExperiment17Scale(t *testing.T) {
	inputs, local := mapgen.Generate(mapgen.Default1986())
	var pins []Input
	for _, in := range inputs {
		pins = append(pins, Input{Name: in.Name, Text: string(in.Src)})
	}
	start := time.Now()
	res, err := Run(Options{LocalHost: local}, pins...)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if res.Stats.Hosts < 8000 {
		t.Errorf("hosts = %d, want 1986 scale (≈8,500)", res.Stats.Hosts)
	}
	if res.Stats.Links < 25000 {
		t.Errorf("links = %d, want ≈28,000+", res.Stats.Links)
	}
	if len(res.Routes) < 8000 {
		t.Errorf("routes = %d", len(res.Routes))
	}
	t.Logf("full pipeline at 1986 scale: %v for %d routes", elapsed, len(res.Routes))
	if elapsed > 30*time.Second {
		t.Errorf("pipeline took %v; something is catastrophically slow", elapsed)
	}
}

// E18 — the cbosgd/mcvax reply example is exercised in
// internal/mailer (TestReplyRewritingHazard); here the end-to-end
// composition: routes from the map feed the rewriter.
func TestExperiment18ReplyRewriting(t *testing.T) {
	res, err := RunString(Options{LocalHost: "cbosgd"}, `
cbosgd	princeton(DEMAND), seismo(DEMAND)
princeton	cbosgd(DEMAND), seismo(HOURLY)
seismo	cbosgd(DEMAND), princeton(HOURLY), mcvax(DAILY)
mcvax	seismo(DAILY)
`)
	if err != nil {
		t.Fatal(err)
	}
	db := res.NewDatabase()
	// cbosgd knows a direct route to mcvax (via seismo).
	addr, err := db.Resolve("mcvax", "piet")
	if err != nil {
		t.Fatal(err)
	}
	if addr != "seismo!mcvax!piet" {
		t.Errorf("route to mcvax = %q", addr)
	}
}

// TestExperimentIndex keeps DESIGN.md §5 and this file in step: every
// TestExperimentN has an index entry **EN**, and every entry a test.
func TestExperimentIndex(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(design), "\n## §5 Experiments index\n")
	if !ok {
		t.Fatal("DESIGN.md has no §5 Experiments index")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	indexed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^- \*\*E(\d+)\*\*`).FindAllStringSubmatch(sec, -1) {
		indexed[m[1]] = true
	}
	file, err := goparser.ParseFile(token.NewFileSet(), "experiments_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tested := map[string]bool{}
	testName := regexp.MustCompile(`^TestExperiment(\d+)`)
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			if m := testName.FindStringSubmatch(fn.Name.Name); m != nil {
				tested[m[1]] = true
			}
		}
	}
	if len(tested) == 0 {
		t.Fatal("no TestExperimentN functions found")
	}
	for n := range tested {
		if !indexed[n] {
			t.Errorf("TestExperiment%s has no E%s entry in DESIGN.md §5", n, n)
		}
	}
	for n := range indexed {
		if !tested[n] {
			t.Errorf("DESIGN.md §5 lists E%s, but there is no TestExperiment%s", n, n)
		}
	}
}

// --- hash-table construction helpers for E10 ---

func newHashTable(variant int) *hash.Table[int] {
	sv := hash.SecondaryInverse
	if variant == 1 {
		sv = hash.SecondaryKnuth
	}
	return hash.NewWith[int](sv, hash.GrowFibonacci)
}

func newHashTableGrowth(policy int) *hash.Table[int] {
	gp := hash.GrowFibonacci
	if policy == 1 {
		gp = hash.GrowDoubling
	}
	return hash.NewWith[int](hash.SecondaryInverse, gp)
}
