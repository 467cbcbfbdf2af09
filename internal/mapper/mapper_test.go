package mapper

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pathalias/internal/cost"
	"pathalias/internal/graph"
	"pathalias/internal/parser"
)

// buildGraph parses map text or fails the test.
func buildGraph(t *testing.T, src string) *graph.Graph {
	t.Helper()
	res, err := parser.ParseString("test.map", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return res.Graph
}

// mapFrom runs the mapper from the named source with default options.
func mapFrom(t *testing.T, g *graph.Graph, source string) *Result {
	t.Helper()
	return mapFromOpts(t, g, source, DefaultOptions())
}

func mapFromOpts(t *testing.T, g *graph.Graph, source string, opts Options) *Result {
	t.Helper()
	src, ok := g.Lookup(source)
	if !ok {
		t.Fatalf("no source node %q", source)
	}
	res, err := Run(g, src, opts)
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	return res
}

// winnerNamed returns the view of the named node's winning label,
// failing the test if the run did not map it. It finds the node's
// labels by walking the tree from the root, and checks that Winner
// picks the cheapest of them.
func winnerNamed(t *testing.T, res *Result, name string) LabelView {
	t.Helper()
	mc := res.Machine
	var seen []int32
	var walk func(li int32)
	walk = func(li int32) {
		if mc.Label(li).Node.Name == name {
			seen = append(seen, li)
		}
		for _, c := range mc.AppendChildren(nil, li) {
			walk(c)
		}
	}
	walk(mc.Root())
	if len(seen) == 0 {
		t.Fatalf("node %q not mapped", name)
	}
	w := mc.Winner(mc.Label(seen[0]).Node)
	if !slices.Contains(seen, w) {
		t.Fatalf("Winner(%s) = %d, not one of its tree labels %v", name, w, seen)
	}
	for _, li := range seen {
		if mc.Label(li).Cost < mc.Label(w).Cost {
			t.Fatalf("Winner(%s) is not its cheapest tree label", name)
		}
	}
	return mc.Label(w)
}

// winnerOf returns the view of n's winning label; ok is false when n is
// not mapped.
func winnerOf(res *Result, n *graph.Node) (lv LabelView, ok bool) {
	w := res.Machine.Winner(n)
	if w < 0 {
		return LabelView{}, false
	}
	return res.Machine.Label(w), true
}

// nodeCost returns the mapped cost of a node.
func nodeCost(t *testing.T, res *Result, name string) cost.Cost {
	t.Helper()
	return winnerNamed(t, res, name).Cost
}

// pathTo reconstructs the node-name path from the source by following
// the winning label's parents back to the root.
func pathTo(t *testing.T, res *Result, name string) []string {
	t.Helper()
	var rev []string
	for lv := winnerNamed(t, res, name); ; lv = res.Machine.Label(lv.Parent) {
		rev = append(rev, lv.Node.Name)
		if lv.Parent < 0 {
			break
		}
	}
	slices.Reverse(rev)
	return rev
}

const paper1981Map = `unc	duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), research(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND)
ucbvax	research(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
`

func TestPaper1981Costs(t *testing.T) {
	// The paper's example output costs, exactly:
	//   0 unc, 500 duke, 800 phs, 3000 research, 3300 ucbvax,
	//   3395 mit-ai, 3395 stanford.
	g := buildGraph(t, paper1981Map)
	res := mapFrom(t, g, "unc")

	want := map[string]cost.Cost{
		"unc":      0,
		"duke":     500,
		"phs":      800,
		"research": 3000,
		"ucbvax":   3300,
		"mit-ai":   3395,
		"stanford": 3395,
	}
	for name, w := range want {
		if got := nodeCost(t, res, name); got != w {
			t.Errorf("cost(%s) = %v, want %v", name, got, w)
		}
	}
}

func TestPaper1981Paths(t *testing.T) {
	// "all generated paths route mail through duke, despite the presence
	// of a direct connection to phs from unc."
	g := buildGraph(t, paper1981Map)
	res := mapFrom(t, g, "unc")

	if got := pathTo(t, res, "phs"); strings.Join(got, " ") != "unc duke phs" {
		t.Errorf("path to phs = %v, want through duke", got)
	}
	if got := pathTo(t, res, "mit-ai"); strings.Join(got, " ") != "unc duke research ucbvax ARPA mit-ai" {
		t.Errorf("path to mit-ai = %v", got)
	}
}

func TestTreeEdgesMarked(t *testing.T) {
	g := buildGraph(t, paper1981Map)
	res := mapFrom(t, g, "unc")
	duke, _ := g.Lookup("duke")
	unc, _ := g.Lookup("unc")
	if l := g.FindLink(unc, duke); l == nil || winnerNamed(t, res, "duke").Via != l {
		t.Error("unc->duke is not duke's tree edge")
	}
	// The unused direct unc->phs link must not be a tree edge.
	phs, _ := g.Lookup("phs")
	if l := g.FindLink(unc, phs); l == nil || winnerNamed(t, res, "phs").Via == l || res.TreeEdge(l) {
		t.Error("unc->phs wrongly taken as phs's tree edge")
	}
	if l := g.FindLink(unc, duke); !res.TreeEdge(l) {
		t.Error("TreeEdge(unc->duke) = false")
	}
	if w := res.Machine.Winner(unc); w != res.Machine.Root() || res.Machine.Label(w).Via != nil {
		t.Errorf("Winner(unc) = %d, want the root %d", w, res.Machine.Root())
	}
}

func TestResultTreeShape(t *testing.T) {
	g := buildGraph(t, paper1981Map)
	res := mapFrom(t, g, "unc")
	mc := res.Machine
	root := mc.Root()
	if root < 0 || mc.Label(root).Node.Name != "unc" {
		t.Fatalf("tree root = %d", root)
	}
	if rv := mc.Label(root); rv.Cost != 0 || rv.Via != nil || rv.Parent >= 0 || mc.Winner(rv.Node) != root {
		t.Errorf("root fields: %+v", rv)
	}
	// Walk the tree; every child's Via.From must be the parent's node.
	labels := 0
	var walk func(li int32)
	walk = func(li int32) {
		labels++
		p := mc.Label(li)
		for _, ci := range mc.AppendChildren(nil, li) {
			c := mc.Label(ci)
			if c.Parent != li || c.Via == nil || c.Via.From != p.Node || c.Via.To != c.Node {
				t.Errorf("tree edge inconsistent at %s -> %s", p.Node.Name, c.Node.Name)
			}
			if c.Cost < p.Cost {
				t.Errorf("child %s cheaper than parent %s", c.Node.Name, p.Node.Name)
			}
			walk(ci)
		}
	}
	walk(root)
	if res.Reached != 8 || labels != 8 {
		t.Errorf("Reached = %d, tree labels = %d, want 8", res.Reached, labels)
	}
}

func TestUnreachableReported(t *testing.T) {
	// island has no links at all; nothing can invent a back link.
	g := buildGraph(t, "a b(10)\nisland\n")
	res := mapFrom(t, g, "a")
	if len(res.Unreachable) != 1 || res.Unreachable[0].Name != "island" {
		t.Errorf("Unreachable = %v", res.Unreachable)
	}
}

func TestBackLinks(t *testing.T) {
	// leaf declares a link to b but nobody links to leaf. The back-link
	// pass invents b->leaf and routes it "by implication".
	g := buildGraph(t, "a b(10)\nleaf b(25)\n")
	res := mapFrom(t, g, "a")
	if len(res.Unreachable) != 0 {
		t.Fatalf("Unreachable = %v", res.Unreachable)
	}
	if res.BackLinked != 1 {
		t.Errorf("BackLinked = %d want 1", res.BackLinked)
	}
	// Invented link carries the declared cost of the reverse direction.
	if got := nodeCost(t, res, "leaf"); got != 35 {
		t.Errorf("cost(leaf) = %v want 35 (10 + invented 25)", got)
	}
	// The invented b->leaf lives on the Result, not in the graph.
	if len(res.Invented) != 1 || res.Invented[0].From.Name != "b" ||
		res.Invented[0].To.Name != "leaf" || res.Invented[0].Flags != graph.LBack {
		t.Errorf("Invented = %v", res.Invented)
	}
	if w := winnerNamed(t, res, "leaf"); w.Via != res.Invented[0] {
		t.Errorf("leaf's tree edge = %v, want the invented link", w.Via)
	}
	b, _ := g.Lookup("b")
	leaf, _ := g.Lookup("leaf")
	if g.FindLink(b, leaf) != nil || g.Stats().Links != 2 {
		t.Errorf("mapping wrote the graph: %d links", g.Stats().Links)
	}
	if got := slices.Collect(res.Links(b)); len(got) != 1 || got[0] != res.Invented[0] {
		t.Errorf("Links(b) = %v, want the invented link", got)
	}
	if got := pathTo(t, res, "leaf"); strings.Join(got, " ") != "a b leaf" {
		t.Errorf("path to leaf = %v", got)
	}
}

func TestBackLinksChained(t *testing.T) {
	// x -> y -> b where only the leaves declare: both need invention,
	// and y becomes reachable only after x does. The pass iterates.
	g := buildGraph(t, "a b(10)\nx b(5)\ny x(5)\n")
	res := mapFrom(t, g, "a")
	if len(res.Unreachable) != 0 {
		t.Fatalf("Unreachable = %v", res.Unreachable)
	}
	if got := nodeCost(t, res, "y"); got != 20 {
		t.Errorf("cost(y) = %v want 20", got)
	}
}

func TestBackLinksDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.BackLinks = false
	g := buildGraph(t, "a b(10)\nleaf b(25)\n")
	res := mapFromOpts(t, g, "a", opts)
	if len(res.Unreachable) != 1 || res.Unreachable[0].Name != "leaf" {
		t.Errorf("Unreachable = %v", res.Unreachable)
	}
}

func TestAliasZeroCost(t *testing.T) {
	g := buildGraph(t, "a princeton(100)\nprinceton = fun\n")
	res := mapFrom(t, g, "a")
	if got := nodeCost(t, res, "fun"); got != 100 {
		t.Errorf("cost(fun) = %v want 100 (alias edges are free)", got)
	}
}

func TestNetworkTollModel(t *testing.T) {
	// Pay to get onto the network, free to get off.
	g := buildGraph(t, "a NET(0)\nNET = {m1, m2}(50)\na m3(10)\nm3 NET(0)\n")
	// Hmm: a direct link into NET would be a gateway declaration only for
	// domains; NET is not gatewayed so entry is unpenalized anyway.
	res := mapFrom(t, g, "a")
	if got := nodeCost(t, res, "m1"); got != 0 {
		t.Errorf("cost(m1) = %v want 0 (free exit from NET)", got)
	}
}

func TestNetworkEntryPaid(t *testing.T) {
	// a->m1 (10), then m1 enters NET for 50, exits free to m2: total 60.
	g := buildGraph(t, "a m1(10)\nNET = {m1, m2}(50)\n")
	res := mapFrom(t, g, "a")
	if got := nodeCost(t, res, "m2"); got != 60 {
		t.Errorf("cost(m2) = %v want 60 (10 + entry 50 + exit 0)", got)
	}
	if got := pathTo(t, res, "m2"); strings.Join(got, " ") != "a m1 NET m2" {
		t.Errorf("path = %v", got)
	}
}

func TestCliqueVersusHub(t *testing.T) {
	// The hub representation must give the same member-to-member costs as
	// the explicit clique it compresses (E5): clique edge cost = entry
	// cost, since exit is free.
	hub := mapFrom(t, buildGraph(t, "a m1(10)\nNET = {m1, m2, m3}(50)\n"), "a")
	clique := mapFrom(t, buildGraph(t, `a m1(10)
m1 m2(50), m3(50)
m2 m1(50), m3(50)
m3 m1(50), m2(50)
`), "a")
	for _, m := range []string{"m2", "m3"} {
		h := nodeCost(t, hub, m)
		c := nodeCost(t, clique, m)
		if h != c {
			t.Errorf("cost(%s): hub %v != clique %v", m, h, c)
		}
	}
}

func TestGatewayPenalty(t *testing.T) {
	// ARPA requires a gateway; seismo is declared one, ucbvax is not.
	// Entering through ucbvax must be severely penalized.
	src := `local ucbvax(100), seismo(300)
ARPA = @{ucbvax, seismo, mit-ai}(DEDICATED)
gatewayed {ARPA}
gateway {ARPA!seismo}
`
	g := buildGraph(t, src)
	res := mapFrom(t, g, "local")
	// Via seismo: 300 + 95 = 395. Via ucbvax: 100 + 95 + penalty.
	if got := nodeCost(t, res, "mit-ai"); got != 395 {
		t.Errorf("cost(mit-ai) = %v want 395 (through the declared gateway)", got)
	}
	if got := pathTo(t, res, "mit-ai"); strings.Join(got, " ") != "local seismo ARPA mit-ai" {
		t.Errorf("path = %v", got)
	}
}

func TestGatewayPenaltyOffGatewayStillRoutable(t *testing.T) {
	// With no declared gateway at all, the net is still reachable — just
	// at penalty cost (routes of last resort, like dead links).
	src := `local ucbvax(100)
ARPA = @{ucbvax, mit-ai}(DEDICATED)
gatewayed {ARPA}
`
	g := buildGraph(t, src)
	res := mapFrom(t, g, "local")
	if len(res.Unreachable) != 0 {
		t.Fatalf("Unreachable = %v", res.Unreachable)
	}
	if got := nodeCost(t, res, "mit-ai"); got < DefaultGatewayPenalty {
		t.Errorf("cost(mit-ai) = %v, want >= gateway penalty", got)
	}
}

func TestDeadLinkAvoided(t *testing.T) {
	// Two routes to c; the cheap one is dead, so the expensive one wins,
	// but the dead one still works if it is the only route.
	g := buildGraph(t, "a b(10), c(10)\nb c(10)\ndead {a!c}\n")
	res := mapFrom(t, g, "a")
	if got := pathTo(t, res, "c"); strings.Join(got, " ") != "a b c" {
		t.Errorf("path to c = %v, want detour around dead link", got)
	}

	g2 := buildGraph(t, "a c(10)\ndead {a!c}\n")
	res = mapFrom(t, g2, "a")
	if len(res.Unreachable) != 0 {
		t.Error("dead link should still be usable as last resort")
	}
	if got := nodeCost(t, res, "c"); got < DefaultDeadPenalty {
		t.Errorf("cost over dead link = %v, want >= penalty", got)
	}
}

func TestDeadHostAvoidedAsRelay(t *testing.T) {
	g := buildGraph(t, "a b(10), d(10)\nd c(10)\nb c(100)\ndead {d}\n")
	res := mapFrom(t, g, "a")
	if got := pathTo(t, res, "c"); strings.Join(got, " ") != "a b c" {
		t.Errorf("path to c = %v, want around dead host d", got)
	}
}

func TestDeletedHostExcluded(t *testing.T) {
	g := buildGraph(t, "a b(10)\nb c(10)\ndelete {b}\n")
	res := mapFrom(t, g, "a")
	names := map[string]bool{}
	for _, n := range res.Unreachable {
		names[n.Name] = true
	}
	if !names["c"] {
		t.Errorf("c should be unreachable with b deleted; unreachable = %v", res.Unreachable)
	}
	b, _ := g.Lookup("b")
	if res.Machine.Winner(b) >= 0 {
		t.Error("deleted host was mapped")
	}
}

func TestAdjustBiasesRelay(t *testing.T) {
	// Equal-cost relays b and c; adjust makes b worse, so c wins.
	g := buildGraph(t, "a b(10), c(10)\nb d(10)\nc d(10)\nadjust {b(+50)}\n")
	res := mapFrom(t, g, "a")
	if got := pathTo(t, res, "d"); strings.Join(got, " ") != "a c d" {
		t.Errorf("path to d = %v, want via c", got)
	}
	if got := nodeCost(t, res, "d"); got != 20 {
		t.Errorf("cost(d) = %v want 20", got)
	}
	// Terminating at b is NOT adjusted — only transit is.
	if got := nodeCost(t, res, "b"); got != 10 {
		t.Errorf("cost(b) = %v want 10 (adjustment is per-transit)", got)
	}
}

func TestMixedSyntaxPenalty(t *testing.T) {
	// Benign direction: bang path ending in @host — no penalty (this is
	// the paper's own example output form).
	g := buildGraph(t, "a b(10)\nb @c(10)\n")
	res := mapFrom(t, g, "a")
	if got := nodeCost(t, res, "c"); got != 20 {
		t.Errorf("cost(c) = %v want 20 (LEFT then RIGHT is benign)", got)
	}

	// Ambiguous direction: RIGHT then LEFT (user@gw then gw!x) — the
	// form mailers split differently. Penalized.
	g2 := buildGraph(t, "a @b(10)\nb c(10)\n")
	res = mapFrom(t, g2, "a")
	if got := nodeCost(t, res, "c"); got != cost.Cost(20)+DefaultMixedPenalty {
		t.Errorf("cost(c) = %v want 20+penalty", got)
	}
	if res.Penalized != 1 {
		t.Errorf("Penalized = %d want 1", res.Penalized)
	}
}

func TestMixedSyntaxPenaltyAvoidance(t *testing.T) {
	// Pay a modest extra to keep the syntax clean: pure-bang detour (60)
	// beats the mixed route (20 + heavy penalty).
	src := `a @b(10), d(30)
b c(10)
d c(30)
`
	g := buildGraph(t, src)
	res := mapFrom(t, g, "a")
	if got := pathTo(t, res, "c"); strings.Join(got, " ") != "a d c" {
		t.Errorf("path to c = %v, want the clean detour", got)
	}
	if got := nodeCost(t, res, "c"); got != 60 {
		t.Errorf("cost(c) = %v want 60", got)
	}
}

func TestDomainRelayPenalty(t *testing.T) {
	// The PROBLEMS figure, with the paper's exact arithmetic: princeton
	// → caip (200), caip pays 200 to enter .rutgers.edu (exit free: the
	// figure's 0), then the domain relays out to motown (LOCAL = 25):
	// "cost = 425+∞". The right branch, princeton → topaz (300) → motown
	// (200) = 500, must win.
	src := `princeton	caip(200), topaz(300)
.rutgers.edu	= {caip}(200)
.rutgers.edu	motown(LOCAL)
topaz	motown(200)
`
	g := buildGraph(t, src)
	res := mapFrom(t, g, "princeton")
	if got := pathTo(t, res, "motown"); strings.Join(got, " ") != "princeton topaz motown" {
		t.Errorf("path to motown = %v, want via topaz", got)
	}
	if got := nodeCost(t, res, "motown"); got != 500 {
		t.Errorf("cost(motown) = %v want 500", got)
	}
	// Without the heuristic, the left branch (425) would win — verify the
	// naive cost is exactly the paper's 425.
	opts := DefaultOptions()
	opts.DomainRelayPenalty = 0
	res = mapFromOpts(t, g, "princeton", opts)
	if got := nodeCost(t, res, "motown"); got != 425 {
		t.Errorf("unpenalized cost(motown) = %v want 425", got)
	}
	if got := pathTo(t, res, "motown"); strings.Join(got, " ") != "princeton caip .rutgers.edu motown" {
		t.Errorf("unpenalized path = %v", got)
	}
}

func TestDomainDescentNotPenalized(t *testing.T) {
	// Descending a domain chain to a member host is NOT relaying: member
	// edges are free and unpenalized (seismo -> .edu -> .rutgers -> caip).
	src := `seismo	.edu(DEDICATED)
.edu	= {.rutgers}
.rutgers	= {caip}
`
	g := buildGraph(t, src)
	res := mapFrom(t, g, "seismo")
	if len(res.Unreachable) != 0 {
		t.Fatalf("Unreachable = %v", res.Unreachable)
	}
	if got := nodeCost(t, res, "caip"); got != cost.Dedicated {
		t.Errorf("cost(caip) = %v want DEDICATED (domain descent is free)", got)
	}
}

func TestSubdomainToParentInfinite(t *testing.T) {
	// Climbing from a subdomain to its parent must be essentially
	// infinite (prevents caip!seismo.css.gov.edu.rutgers!%s).
	src := `a	caip(10)
.rutgers	= {caip}
.edu	= {.rutgers}
x	.edu(10)
x	b(10)
`
	g := buildGraph(t, src)
	res := mapFrom(t, g, "a")
	// Reaching b requires a->caip->.rutgers->.edu->x->b: the
	// .rutgers->.edu hop is the subdomain->parent edge.
	if got := nodeCost(t, res, "b"); !got.IsInfinite() {
		t.Errorf("cost(b) = %v, want infinite via subdomain->parent", got)
	}
}

func TestSecondBestFixesCommittedTree(t *testing.T) {
	// The committed-tree flaw: caip's best route is via the domain
	// (a→d1 50, d1 enters .dom free as its gateway, .dom→caip free:
	// total 50); its neighbor motown then inherits a domain-tainted
	// path (50+25+∞) even though a clean path exists via b
	// (150+25=175). SecondBest keeps the clean label alive.
	src := `a	d1(50), b(100)
.dom	= {caip}(50)
d1	.dom(0)
b	caip(50)
caip	motown(25)
`
	g := buildGraph(t, src)

	// Production behavior: committed tree, motown pays the penalty.
	res := mapFrom(t, g, "a")
	if got := nodeCost(t, res, "caip"); got != 50 {
		t.Errorf("cost(caip) = %v want 50", got)
	}
	if got := nodeCost(t, res, "motown"); !got.IsInfinite() {
		t.Errorf("committed-tree cost(motown) = %v, want infinite", got)
	}

	// Second-best: caip keeps a clean label at 150; motown = 175.
	opts := DefaultOptions()
	opts.SecondBest = true
	res = mapFromOpts(t, g, "a", opts)
	if got := nodeCost(t, res, "caip"); got != 50 {
		t.Errorf("second-best cost(caip) = %v want 50 (still the domain route)", got)
	}
	if got := nodeCost(t, res, "motown"); got != 175 {
		t.Errorf("second-best cost(motown) = %v want 175", got)
	}
	// The tree must contain caip twice — the winning (tainted) label and
	// the clean label — and the WINNING motown must hang off the clean,
	// non-winning caip.
	caipCount := 0
	mc := res.Machine
	var walk func(li int32)
	walk = func(li int32) {
		lv := mc.Label(li)
		kids := mc.AppendChildren(nil, li)
		if lv.Node.Name == "caip" {
			caipCount++
			for _, ci := range kids {
				c := mc.Label(ci)
				if c.Node.Name == "motown" && mc.Winner(c.Node) == ci {
					if mc.Winner(lv.Node) == li || lv.InDomain {
						t.Error("winning motown hangs off the tainted caip label")
					}
					if c.Cost != 175 {
						t.Errorf("winning motown cost = %v want 175", c.Cost)
					}
				}
			}
		}
		for _, ci := range kids {
			walk(ci)
		}
	}
	walk(mc.Root())
	if caipCount != 2 {
		t.Errorf("caip appears %d times in second-best tree, want 2", caipCount)
	}
}

func TestRunErrors(t *testing.T) {
	g := buildGraph(t, "a b(10)\ndelete {b}\n")
	if _, err := Run(g, nil, DefaultOptions()); err == nil {
		t.Error("nil source accepted")
	}
	b, _ := g.Lookup("b")
	if _, err := Run(g, b, DefaultOptions()); err == nil {
		t.Error("deleted source accepted")
	}
}

func TestRemapDifferentSources(t *testing.T) {
	g := buildGraph(t, "a b(10)\nb a(10), c(10)\nc b(10)\n")
	res := mapFrom(t, g, "a")
	if got := nodeCost(t, res, "c"); got != 20 {
		t.Errorf("from a: cost(c) = %v", got)
	}
	res = mapFrom(t, g, "c")
	if got := nodeCost(t, res, "a"); got != 20 {
		t.Errorf("from c: cost(a) = %v", got)
	}
	if got := nodeCost(t, res, "c"); got != 0 {
		t.Errorf("from c: cost(c) = %v", got)
	}

	// A run's invented back links must not outlive it. Mapped from y,
	// z is reachable only through an invented y->z; mapped from a
	// afterwards, z must cost what a fresh run gives (a q r z), not
	// ride the earlier run's y->z.
	g = buildGraph(t, "a y(10), q(10)\nq r(1000)\nr z(1000)\nz y(10)\n")
	links := g.Stats().Links
	res = mapFrom(t, g, "y")
	if len(res.Invented) == 0 {
		t.Fatal("from y: no back links invented")
	}
	if got := g.Stats().Links; got != links {
		t.Errorf("from y: graph links %d -> %d", links, got)
	}
	res = mapFrom(t, g, "a")
	if got := nodeCost(t, res, "z"); got != 2010 {
		t.Errorf("from a after y: cost(z) = %v, want 2010", got)
	}
	if got := g.Stats().Links; got != links {
		t.Errorf("from a: graph links %d -> %d", links, got)
	}
}

func TestStatsPopulated(t *testing.T) {
	g := buildGraph(t, paper1981Map)
	res := mapFrom(t, g, "unc")
	if res.Extractions == 0 || res.Relaxations == 0 || res.MaxQueue == 0 {
		t.Errorf("stats empty: %+v", res)
	}
}

// randomGraph builds a connected-ish random sparse map for equivalence
// testing.
func randomGraph(t *testing.T, seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for i := 1; i < n; i++ {
		// Link to a random earlier host (guarantees reachability),
		// plus extra random links for cycles and shortcuts.
		fmt.Fprintf(&sb, "h%d h%d(%d)", rng.Intn(i), i, rng.Intn(900)+25)
		for k := 0; k < rng.Intn(3); k++ {
			fmt.Fprintf(&sb, ", h%d(%d)", rng.Intn(n), rng.Intn(900)+25)
		}
		sb.WriteByte('\n')
		if rng.Intn(10) == 0 {
			fmt.Fprintf(&sb, "h%d @h%d(%d)\n", i, rng.Intn(n), rng.Intn(900)+25)
		}
	}
	return buildGraph(t, sb.String())
}

// TestHeapMatchesArrayBaseline is the load-bearing property for E11: the
// sparse heap variant and the textbook O(v²) variant must produce
// identical costs and identical trees.
func TestHeapMatchesArrayBaseline(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(t, seed, 60)
		src, _ := g.Lookup("h0")

		heapRes, err := Run(g, src, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		arrRes, err := RunArray(g, src, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Nodes() {
			hw, hok := winnerOf(heapRes, n)
			aw, aok := winnerOf(arrRes, n)
			if hok != aok {
				t.Errorf("seed %d: %s mapped by heap %v, by array %v", seed, n.Name, hok, aok)
				continue
			}
			if !hok {
				continue
			}
			if hw.Cost != aw.Cost {
				t.Errorf("seed %d: cost(%s) heap %v != array %v", seed, n.Name, hw.Cost, aw.Cost)
			}
			if hw.Via != aw.Via {
				t.Errorf("seed %d: tree edge(%s) heap %v != array %v", seed, n.Name, hw.Via, aw.Via)
			}
		}
		if heapRes.Reached != arrRes.Reached {
			t.Errorf("seed %d: reached heap %d != array %d",
				seed, heapRes.Reached, arrRes.Reached)
		}
	}
}

// TestDeterminism: identical input maps twice to identical results.
func TestDeterminism(t *testing.T) {
	g1 := randomGraph(t, 7, 80)
	g2 := randomGraph(t, 7, 80)
	s1, _ := g1.Lookup("h0")
	s2, _ := g2.Lookup("h0")
	r1, err := Run(g1, s1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(g2, s2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range g1.Nodes() {
		n2 := g2.Nodes()[i]
		w1, ok1 := winnerOf(r1, n)
		w2, ok2 := winnerOf(r2, n2)
		if n.Name != n2.Name || ok1 != ok2 {
			t.Fatalf("nondeterministic mapping at %s", n.Name)
		}
		if !ok1 {
			continue
		}
		if w1.Cost != w2.Cost || w1.Hops != w2.Hops {
			t.Fatalf("nondeterministic mapping at %s", n.Name)
		}
		p1, p2 := "", ""
		if w1.Via != nil {
			p1 = w1.Via.From.Name
		}
		if w2.Via != nil {
			p2 = w2.Via.From.Name
		}
		if p1 != p2 {
			t.Fatalf("nondeterministic parent at %s: %q vs %q", n.Name, p1, p2)
		}
	}
}

func BenchmarkMapPaper1981(b *testing.B) {
	res, err := parser.ParseString("bench", paper1981Map)
	if err != nil {
		b.Fatal(err)
	}
	g := res.Graph
	src, _ := g.Lookup("unc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, src, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBucketGeometries: every graph size gets one of the geometries
// queuePools has a pool for.
func TestBucketGeometries(t *testing.T) {
	seen := map[uint]bool{}
	for n := 0; n <= 2*bucketCount; n = 2*n + 1 {
		b, shift := bucketGeometry(n)
		if i := int(shift) - bucketShift; i < 0 || i >= geometries || b<<shift != bucketCount<<bucketShift {
			t.Fatalf("n=%d: %d buckets of shift %d, outside the %d pooled geometries", n, b, shift, geometries)
		}
		seen[shift] = true
	}
	if len(seen) != geometries {
		t.Errorf("sizes reach %d geometries, want %d", len(seen), geometries)
	}
}
