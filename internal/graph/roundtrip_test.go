package graph_test

// Round-trip property at scale: a generated graph written back to map text
// and re-parsed is semantically identical. Lives in graph_test (external
// test package) because it needs the parser, which imports graph.

import (
	"strings"
	"testing"

	"pathalias/internal/graph"
	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
	"pathalias/internal/routedb"
)

// TestWriteToRoundTripAtScale: parse generated map → write → re-parse →
// identical structure and identical routes. Private hosts are excluded
// from the generator config because WriteTo flattens file scoping (its
// documented limitation).
func TestWriteToRoundTripAtScale(t *testing.T) {
	cfg := mapgen.Small()
	cfg.Privates = 0
	inputs, local := mapgen.Generate(cfg)

	res1, err := parser.Parse(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	g1 := res1.Graph

	var sb strings.Builder
	if _, err := g1.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	res2, err := parser.ParseString("roundtrip", sb.String())
	if err != nil {
		t.Fatalf("written map does not re-parse: %v", err)
	}
	g2 := res2.Graph

	s1, s2 := g1.Stats(), g2.Stats()
	s1.HashStats = s2.HashStats // hash internals may differ
	s1.DupLinks, s2.DupLinks = 0, 0
	s1.SelfLinks, s2.SelfLinks = 0, 0
	if s1 != s2 {
		t.Fatalf("round-trip stats differ:\n%+v\n%+v", s1, s2)
	}

	// Stronger: the routes computed from both graphs are identical.
	routes := func(g *graph.Graph) string {
		src, ok := g.Lookup(local)
		if !ok {
			t.Fatal("local host lost in round trip")
		}
		mres, err := mapper.Run(g, src, mapper.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if _, err := routedb.WriteText(&out, printer.Routes(mres, printer.Options{}), true); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	r1, r2 := routes(g1), routes(g2)
	if r1 != r2 {
		// Show the first divergence compactly.
		l1, l2 := strings.Split(r1, "\n"), strings.Split(r2, "\n")
		for i := range l1 {
			if i >= len(l2) || l1[i] != l2[i] {
				t.Fatalf("routes diverge at line %d:\n  orig: %s\n  trip: %s", i, l1[i], l2[i])
			}
		}
		t.Fatal("routes differ in length")
	}
}

// TestWriteToOmitsInventedLinks: back links invented during mapping must
// not leak into the written map.
func TestWriteToOmitsInventedLinks(t *testing.T) {
	res, err := parser.ParseString("t", "a b(10)\nleaf b(25)\n")
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	src, _ := g.Lookup("a")
	if _, err := mapper.Run(g, src, mapper.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := g.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "b\tleaf") {
		t.Errorf("invented back link written to map:\n%s", sb.String())
	}
}
