package printer

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"pathalias/internal/graph"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/routedb"
)

// routesFor parses, maps from source, and returns the entries.
func routesFor(t *testing.T, src, source string, opts Options) []Entry {
	t.Helper()
	return routesForMapOpts(t, src, source, opts, mapper.DefaultOptions())
}

func routesForMapOpts(t *testing.T, src, source string, opts Options, mopts mapper.Options) []Entry {
	t.Helper()
	res, err := parser.ParseString("test.map", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	srcNode, ok := res.Graph.Lookup(source)
	if !ok {
		t.Fatalf("no source %q", source)
	}
	mres, err := mapper.Run(res.Graph, srcNode, mopts)
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	return Routes(mres, opts)
}

// find returns the entry for a host, or fails.
func find(t *testing.T, entries []Entry, host string) Entry {
	t.Helper()
	for _, e := range entries {
		if e.Host == host {
			return e
		}
	}
	t.Fatalf("no entry for %q in %v", host, entries)
	return Entry{}
}

const paper1981Map = `unc	duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), research(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND)
ucbvax	research(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
`

// TestPaperExampleOutput reproduces the paper's example output (page 4)
// exactly, byte for byte. This is experiment E4's core assertion.
func TestPaperExampleOutput(t *testing.T) {
	res, err := parser.ParseString("test.map", paper1981Map)
	if err != nil {
		t.Fatal(err)
	}
	unc, _ := res.Graph.Lookup("unc")
	mres, err := mapper.Run(res.Graph, unc, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := routedb.WriteText(&sb, ByCost(Routes(mres, Options{})), true); err != nil {
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
		t.Errorf("output mismatch.\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestNetworkNotPrinted(t *testing.T) {
	entries := routesFor(t, paper1981Map, "unc", Options{})
	for _, e := range entries {
		if e.Host == "ARPA" {
			t.Error("network ARPA appeared in output")
		}
	}
	if len(entries) != 7 {
		t.Errorf("entries = %d want 7", len(entries))
	}
}

func TestDefaultSortByName(t *testing.T) {
	entries := routesFor(t, paper1981Map, "unc", Options{})
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Host > entries[i].Host {
			t.Errorf("not name-sorted: %q after %q", entries[i].Host, entries[i-1].Host)
		}
	}
}

// TestByCost: ByCost over name-ordered entries equals a stable
// (cost, name) comparator sort of them, and leaves its argument as it
// was. A cost of 2^62 leaves no room for the index in a packed key, so
// that table takes the stable sort instead.
func TestByCost(t *testing.T) {
	base := routesFor(t, paper1981Map+"unc\tb(HOURLY), a(HOURLY)\n", "unc", Options{})
	huge := slices.Clone(base)
	huge[len(huge)/2].Cost = 1 << 62
	for _, entries := range [][]Entry{base, huge, nil} {
		before := slices.Clone(entries)
		want := slices.Clone(entries)
		slices.SortStableFunc(want, func(a, b Entry) int {
			return cmp.Or(cmp.Compare(a.Cost, b.Cost), strings.Compare(a.Host, b.Host))
		})
		if got := ByCost(entries); !slices.Equal(got, want) {
			t.Errorf("ByCost:\n got %v\nwant %v", got, want)
		}
		if !slices.Equal(entries, before) {
			t.Errorf("ByCost wrote its argument")
		}
	}
	// a, b and duke tie at HOURLY: the name order must decide.
	if got := ByCost(base); got[1].Host != "a" || got[2].Host != "b" || got[3].Host != "duke" {
		t.Errorf("ties not in name order: %v", got)
	}
}

// TestRouteLabelFigure reproduces the route-labeling figure: princeton
// with children siemens (!, LEFT) and gypsy under siemens (@, RIGHT) gets
// routes siemens!%s and siemens!%s@gypsy.
func TestRouteLabelFigure(t *testing.T) {
	src := `princeton	siemens(50)
siemens	@gypsy(50)
`
	entries := routesFor(t, src, "princeton", Options{})
	if e := find(t, entries, "siemens"); e.Route != "siemens!%s" {
		t.Errorf("siemens route = %q", e.Route)
	}
	if e := find(t, entries, "gypsy"); e.Route != "siemens!%s@gypsy" {
		t.Errorf("gypsy route = %q", e.Route)
	}
	if e := find(t, entries, "princeton"); e.Route != "%s" {
		t.Errorf("root route = %q", e.Route)
	}
}

// TestDomainFigure reproduces the domain traversal figure: seismo →
// .edu → .rutgers → caip yields ".edu seismo!%s" and
// "caip.rutgers.edu seismo!caip.rutgers.edu!%s"; the subdomain
// .rutgers.edu is not printed.
func TestDomainFigure(t *testing.T) {
	src := `local	seismo(DEMAND)
seismo	.edu(DEDICATED)
.edu	= {.rutgers}
.rutgers	= {caip}
`
	entries := routesFor(t, src, "local", Options{})

	if e := find(t, entries, ".edu"); e.Route != "seismo!%s" {
		t.Errorf(".edu route = %q want seismo!%%s", e.Route)
	}
	if e := find(t, entries, "caip.rutgers.edu"); e.Route != "seismo!caip.rutgers.edu!%s" {
		t.Errorf("caip route = %q", e.Route)
	}
	for _, e := range entries {
		if e.Host == ".rutgers.edu" || e.Host == ".rutgers" {
			t.Errorf("subdomain %q printed", e.Host)
		}
		if e.Host == "caip" {
			t.Error("domain member printed under bare name")
		}
	}
}

// TestDomainMasquerade reproduces the .rutgers.edu masquerade: a
// subdomain declared as its own top-level domain with gateway caip.
// "the route to caip and blue become caip!%s and caip!blue.rutgers.edu!%s"
func TestDomainMasquerade(t *testing.T) {
	src := `local	caip(50)
.rutgers.edu	= {caip, blue}(0)
`
	entries := routesFor(t, src, "local", Options{})
	if e := find(t, entries, "caip"); e.Route != "caip!%s" {
		t.Errorf("caip route = %q", e.Route)
	}
	if e := find(t, entries, "blue.rutgers.edu"); e.Route != "caip!blue.rutgers.edu!%s" {
		t.Errorf("blue route = %q", e.Route)
	}
	// .rutgers.edu itself is top-level here (reached from a host):
	// printed, with its gateway's route.
	if e := find(t, entries, ".rutgers.edu"); e.Route != "caip!%s" {
		t.Errorf(".rutgers.edu route = %q", e.Route)
	}
}

func TestAliasesPrinted(t *testing.T) {
	src := `local	princeton(100)
princeton	= fun
`
	entries := routesFor(t, src, "local", Options{})
	p := find(t, entries, "princeton")
	f := find(t, entries, "fun")
	if p.Route != "princeton!%s" || f.Route != "princeton!%s" {
		t.Errorf("alias routes: princeton=%q fun=%q", p.Route, f.Route)
	}
	if f.Cost != p.Cost {
		t.Errorf("alias cost %v != %v", f.Cost, p.Cost)
	}
}

func TestPrivateNotPrintedButUsedAsRelay(t *testing.T) {
	// relay is private; it must not get a line, but dest's route runs
	// through it by name.
	src := `private {relay}
local	relay(50)
relay	dest(50)
`
	entries := routesFor(t, src, "local", Options{})
	for _, e := range entries {
		if e.Host == "relay" {
			t.Error("private host printed")
		}
	}
	if e := find(t, entries, "dest"); e.Route != "relay!dest!%s" {
		t.Errorf("dest route = %q", e.Route)
	}
}

func TestMixedSyntaxSplicing(t *testing.T) {
	// RIGHT then RIGHT: %s@a then %s@a@b? No — each splice replaces %s:
	// a(RIGHT) gives %s@a; b(RIGHT) under a gives %s@b@a... verify the
	// exact composition rules.
	src := "local @a(10)\na @b(10)\n"
	entries := routesFor(t, src, "local", Options{})
	if e := find(t, entries, "a"); e.Route != "%s@a" {
		t.Errorf("a route = %q", e.Route)
	}
	// Splice(%s@a, b, RIGHT): %s -> %s@b, so route is %s@b@a: build
	// rightward as RFC822 source routes do.
	if e := find(t, entries, "b"); e.Route != "%s@b@a" {
		t.Errorf("b route = %q", e.Route)
	}
}

func TestDomainsOnly(t *testing.T) {
	src := `seismo	.edu(DEDICATED), plainhost(10)
.edu	= {.rutgers}
.rutgers	= {caip}
`
	entries := routesFor(t, src, "seismo", Options{DomainsOnly: true})
	if len(entries) != 1 || entries[0].Host != ".edu" {
		t.Errorf("DomainsOnly entries = %v, want just .edu", entries)
	}
}

func TestDeletedNotPrinted(t *testing.T) {
	src := "a b(10)\nb c(10)\ndelete {c}\n"
	entries := routesFor(t, src, "a", Options{})
	for _, e := range entries {
		if e.Host == "c" {
			t.Error("deleted host printed")
		}
	}
}

func TestSecondBestPrinting(t *testing.T) {
	// The E16 second-best scenario: motown's printed route must follow
	// the clean path via b, even though caip's own route is the domain
	// one.
	src := `a	d1(50), b(100)
.dom	= {caip}(50)
d1	.dom(0)
b	caip(50)
caip	motown(25)
`
	mopts := mapper.DefaultOptions()
	mopts.SecondBest = true
	entries := routesForMapOpts(t, src, "a", Options{}, mopts)

	// caip's winning route is via the domain: d1's route with the
	// qualified name spliced... caip is a member of .dom reached via d1:
	// route = d1!caip.dom!%s.
	if e := find(t, entries, "caip.dom"); e.Route != "d1!caip.dom!%s" {
		t.Errorf("caip.dom route = %q", e.Route)
	}
	// motown follows the clean path.
	if e := find(t, entries, "motown"); e.Route != "b!caip!motown!%s" {
		t.Errorf("motown route = %q want the clean path via b", e.Route)
	}
}

func TestWriteTerseFormat(t *testing.T) {
	res, err := parser.ParseString("t", "a b(10)\n")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := res.Graph.Lookup("a")
	mres, err := mapper.Run(res.Graph, a, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := routedb.WriteText(&sb, Routes(mres, Options{}), false); err != nil {
		t.Fatal(err)
	}
	want := "a\t%s\nb\tb!%s\n"
	if sb.String() != want {
		t.Errorf("terse output = %q want %q", sb.String(), want)
	}
}

func TestSpliceUnit(t *testing.T) {
	cases := []struct {
		route, host string
		op          graph.Op
		want        string
	}{
		{"%s", "duke", graph.DefaultOp, "duke!%s"},
		{"duke!%s", "phs", graph.DefaultOp, "duke!phs!%s"},
		{"duke!%s", "mit-ai", graph.Op{Char: '@', Dir: graph.DirRight}, "duke!%s@mit-ai"},
		{"%s@relay", "x", graph.DefaultOp, "x!%s@relay"},
		{"a!%s", "b", graph.Op{Char: '%', Dir: graph.DirLeft}, "a!b%%s"},
		{"a!%s", "c", graph.Op{Char: ':', Dir: graph.DirLeft}, "a!c:%s"},
	}
	for _, c := range cases {
		got, pct := Splice(c.route, strings.Index(c.route, "%s"), c.host, c.op)
		if got != c.want {
			t.Errorf("Splice(%q, %q, %v) = %q want %q", c.route, c.host, c.op, got, c.want)
		}
		if pct < 0 || pct+2 > len(got) || got[pct:pct+2] != "%s" {
			t.Errorf("Splice(%q, %q, %v): returned marker offset %d does not point at %%s in %q",
				c.route, c.host, c.op, pct, got)
		}
	}
}

func TestEveryRouteHasExactlyOnePercentS(t *testing.T) {
	src := `a	b(10), @c(20)
b	d!(30)
NET	= {a, d}(5)
.edu	= {.rutgers}
a	.edu(95)
.rutgers	= {caip}
x	b(40)
`
	entries := routesFor(t, src, "a", Options{})
	for _, e := range entries {
		if strings.Count(e.Route, "%s") != 1 {
			t.Errorf("route %q for %s does not contain exactly one %%s", e.Route, e.Host)
		}
	}
}
