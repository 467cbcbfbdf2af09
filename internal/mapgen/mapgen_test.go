package mapgen

import (
	"strings"
	"testing"

	"pathalias/internal/core"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
)

func TestSmallGeneratesParseable(t *testing.T) {
	inputs, local := Generate(Small())
	res, err := parser.Parse(inputs...)
	if err != nil {
		t.Fatalf("generated map does not parse: %v", err)
	}
	if _, ok := res.Graph.Lookup(local); !ok {
		t.Fatalf("local host %q not in graph", local)
	}
	st := res.Graph.Stats()
	if st.Hosts < 400 {
		t.Errorf("hosts = %d, want >= core size", st.Hosts)
	}
	if st.Nets == 0 || st.Domains == 0 || st.Privates == 0 || st.AliasEdges == 0 {
		t.Errorf("feature mix missing: %+v", st)
	}
}

func TestDeterministic(t *testing.T) {
	in1, _ := Generate(Small())
	in2, _ := Generate(Small())
	if len(in1) != len(in2) {
		t.Fatal("different file counts")
	}
	for i := range in1 {
		if string(in1[i].Src) != string(in2[i].Src) {
			t.Fatalf("file %d differs between runs with the same seed", i)
		}
	}
	cfg := Small()
	cfg.Seed = 43
	in3, _ := Generate(cfg)
	if string(in1[0].Src) == string(in3[0].Src) {
		t.Error("different seeds produced identical maps")
	}
}

func TestSmallMapsEndToEnd(t *testing.T) {
	inputs, local := Generate(Small())
	rep, err := core.Run(core.Config{LocalHost: local}, inputs...)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if len(rep.Entries) < 400 {
		t.Errorf("routes = %d, want hundreds", len(rep.Entries))
	}
	// Back-link material must actually exercise back links.
	if rep.MapResult.BackLinked == 0 {
		t.Error("no back-linked hosts; passive sites not generated properly")
	}
	// The graph should be essentially fully reachable.
	if len(rep.Unreachable) > 5 {
		t.Errorf("unreachable = %d, want nearly none", len(rep.Unreachable))
	}
	for _, e := range rep.Entries {
		if strings.Count(e.Route, "%s") != 1 {
			t.Fatalf("route %q malformed", e.Route)
		}
	}
}

func TestScaledRatios(t *testing.T) {
	cfg := Scaled(2000, 7)
	if cfg.Hosts != 2000 || cfg.Links != 7000 {
		t.Errorf("Scaled sizes wrong: %+v", cfg)
	}
	inputs, local := Generate(cfg)
	res, err := parser.Parse(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Graph.Stats()
	// Sparsity: e ∝ v. The paper's ratio is ~3.3 declarations per host;
	// hub edges double some of them, so allow a loose band.
	ratio := float64(st.Links) / float64(st.Nodes)
	if ratio < 1.5 || ratio > 8 {
		t.Errorf("links/node = %.2f, not sparse-graph shaped", ratio)
	}
	src, _ := res.Graph.Lookup(local)
	if _, err := mapper.Run(res.Graph, src, mapper.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestDefault1986Scale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation in -short mode")
	}
	cfg := Default1986()
	inputs, local := Generate(cfg)
	res, err := parser.Parse(inputs...)
	if err != nil {
		t.Fatalf("1986-scale map does not parse: %v", err)
	}
	st := res.Graph.Stats()
	// Paper scale: 5,700 + 2,800 hosts ≈ 8,500; 28,000 link declarations.
	if st.Nodes < 8000 {
		t.Errorf("nodes = %d, want ≈ 8,500+", st.Nodes)
	}
	if st.Links < 25000 {
		t.Errorf("links = %d, want ≈ 28,000+", st.Links)
	}
	src, _ := res.Graph.Lookup(local)
	mres, err := mapper.Run(res.Graph, src, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mres.Reached < st.Nodes*9/10 {
		t.Errorf("reached only %d of %d nodes", mres.Reached, st.Nodes)
	}
}
