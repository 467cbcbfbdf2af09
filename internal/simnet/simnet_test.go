package simnet

import (
	"strings"
	"testing"

	"pathalias/internal/graph"
	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
)

func build(t *testing.T, src string) *graph.Graph {
	t.Helper()
	res, err := parser.ParseString("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

func TestDeliverDirectChain(t *testing.T) {
	g := build(t, "a b(10)\nb c(10)\n")
	net := New(g, nil)
	trace, err := net.Deliver("a", "b!c!user")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(trace, " ") != "a b c" {
		t.Errorf("trace = %v", trace)
	}
}

func TestDeliverLocal(t *testing.T) {
	g := build(t, "a b(10)\n")
	net := New(g, nil)
	trace, err := net.Deliver("a", "user")
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 1 || trace[0] != "a" {
		t.Errorf("trace = %v", trace)
	}
}

func TestDeliverFailsWithoutLink(t *testing.T) {
	g := build(t, "a b(10)\nc d(10)\n")
	net := New(g, nil)
	_, err := net.Deliver("a", "c!user")
	if err == nil {
		t.Fatal("delivery without a link succeeded")
	}
	de, ok := err.(*DeliveryError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if de.At != "a" || de.Next != "c" {
		t.Errorf("error = %+v", de)
	}
}

func TestDeliverDirectionalLink(t *testing.T) {
	// Links are directed: b has no link back to a.
	g := build(t, "a b(10)\n")
	net := New(g, nil)
	if _, err := net.Deliver("b", "a!user"); err == nil {
		t.Error("reverse delivery over a one-way link succeeded")
	}
}

func TestDeliverThroughNetwork(t *testing.T) {
	g := build(t, "a m1(10)\nNET = {m1, m2}(50)\n")
	net := New(g, nil)
	trace, err := net.Deliver("a", "m1!m2!user")
	if err != nil {
		t.Fatal(err)
	}
	if trace[len(trace)-1] != "m2" {
		t.Errorf("trace = %v", trace)
	}
}

func TestDeliverAtTail(t *testing.T) {
	// The paper's output form: duke!research!ucbvax!user@mit-ai.
	g := build(t, `unc	duke(HOURLY)
duke	research(DAILY/2)
research	ucbvax(DEMAND)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
`)
	net := New(g, nil)
	trace, err := net.Deliver("unc", "duke!research!ucbvax!user@mit-ai")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(trace, " ") != "unc duke research ucbvax mit-ai" {
		t.Errorf("trace = %v", trace)
	}
}

func TestDeliverViaAliasName(t *testing.T) {
	// b knows the machine as "fun"; the machine's canonical name is
	// princeton. Address says fun; delivery lands on the machine.
	g := build(t, "a b(10)\nb fun(10)\nprinceton = fun\nprinceton x(10)\n")
	net := New(g, nil)
	trace, err := net.Deliver("a", "b!fun!x!user")
	if err != nil {
		t.Fatal(err)
	}
	// The machine may be recorded under either name; the hop after it
	// must succeed because links hang off the alias set.
	if trace[len(trace)-1] != "x" {
		t.Errorf("trace = %v", trace)
	}
}

func TestDeliverDomainQualified(t *testing.T) {
	g := build(t, `local	seismo(DEMAND)
seismo	.edu(DEDICATED)
.edu	= {.rutgers}
.rutgers	= {caip}
`)
	net := New(g, nil)
	trace, err := net.Deliver("local", "seismo!caip.rutgers.edu!user")
	if err != nil {
		t.Fatal(err)
	}
	if trace[len(trace)-1] != "caip" {
		t.Errorf("trace = %v", trace)
	}
}

func TestDeliverLoopDetected(t *testing.T) {
	g := build(t, "a b(10)\nb a(10)\n")
	net := New(g, nil)
	long := strings.Repeat("b!a!", 40) + "user"
	if _, err := net.Deliver("a", long); err == nil {
		t.Error("hop-limit loop not detected")
	}
}

func TestDeliverUnknownOrigin(t *testing.T) {
	g := build(t, "a b(10)\n")
	if _, err := New(g, nil).Deliver("ghost", "b!user"); err == nil {
		t.Error("unknown origin accepted")
	}
}

func TestDeliverRespectsDeleted(t *testing.T) {
	g := build(t, "a b(10)\nb c(10)\ndelete {a!b}\n")
	if _, err := New(g, nil).Deliver("a", "b!c!user"); err == nil {
		t.Error("delivery over deleted link succeeded")
	}
}

// verifyAll maps from local and verifies every printed route delivers.
func verifyAll(t *testing.T, g *graph.Graph, local string) {
	t.Helper()
	src, ok := g.Lookup(local)
	if !ok {
		t.Fatalf("no local %q", local)
	}
	mres, err := mapper.Run(g, src, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	entries := printer.Routes(mres, printer.Options{})
	net := New(g, mres)
	failures := 0
	for _, e := range entries {
		if _, err := net.VerifyRoute(local, e.Route, e.Host); err != nil {
			failures++
			if failures <= 5 {
				t.Errorf("route does not deliver: %v", err)
			}
		}
	}
	if failures > 5 {
		t.Errorf("... and %d more failing routes of %d", failures-5, len(entries))
	}
}

// TestEveryRouteDeliversPaperMap is the headline integration property on
// the paper's own example.
func TestEveryRouteDeliversPaperMap(t *testing.T) {
	g := build(t, `unc	duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), research(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND)
ucbvax	research(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
`)
	verifyAll(t, g, "unc")
}

// TestEveryRouteDeliversSynthetic runs the same property over the
// generated map with all of its feature mix (networks, domains, aliases,
// privates, back links).
func TestEveryRouteDeliversSynthetic(t *testing.T) {
	inputs, local := mapgen.Generate(mapgen.Small())
	res, err := parser.Parse(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	verifyAll(t, res.Graph, local)
}

// TestEveryRouteDeliversWithFeatures exercises the corner cases together.
func TestEveryRouteDeliversWithFeatures(t *testing.T) {
	g := build(t, `hub	a(10), b(10), .edu(95)
a	hub(10), c(10)
b	hub(10), @c(20)
c	= c-alias
.edu	= {.rutgers}
.rutgers	= {caip}
NET	= {a, b, d}(50)
passive	hub(30)
private {ghost}
hub	ghost(10)
ghost	e(10)
e	hub(10)
`)
	verifyAll(t, g, "hub")
}
