package pathalias

// Integration and robustness tests across the whole pipeline: full-scale
// delivery verification, multi-file semantics, never-panic properties on
// hostile input, and cross-variant consistency.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pathalias/internal/cost"
	"pathalias/internal/graph"
	"pathalias/internal/lexer"
	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
	"pathalias/internal/simnet"
)

// TestEveryRouteDeliversAt1986Scale is the capstone integration property:
// on the full 8,500-host synthetic network, every one of the ~8,700
// routes pathalias prints is executable hop-by-hop by the delivery
// simulator. "Get the mail through, reliably and efficiently."
func TestEveryRouteDeliversAt1986Scale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale delivery verification in -short mode")
	}
	inputs, local := mapgen.Generate(mapgen.Default1986())
	pres, err := parser.Parse(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := pres.Graph.Lookup(local)
	mres, err := mapper.Run(pres.Graph, src, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	entries := printer.Routes(mres, printer.Options{})
	net := simnet.New(pres.Graph, mres)
	failures := 0
	for _, e := range entries {
		if _, err := net.VerifyRoute(local, e.Route, e.Host); err != nil {
			failures++
			if failures <= 3 {
				t.Errorf("undeliverable route: %v", err)
			}
		}
	}
	if failures > 3 {
		t.Errorf("... and %d more undeliverable routes of %d", failures-3, len(entries))
	}
	t.Logf("verified %d routes hop-by-hop (%d failures)", len(entries), failures)
}

// TestScannerNeverPanics feeds arbitrary bytes to both scanners.
func TestScannerNeverPanics(t *testing.T) {
	f := func(src []byte) bool {
		s := lexer.NewScanner("fuzz", src)
		for {
			tok, err := s.Next()
			if err != nil || tok.Kind == lexer.EOF {
				break
			}
		}
		ss := lexer.NewSlowScanner("fuzz", src)
		for {
			tok, err := ss.Next()
			if err != nil || tok.Kind == lexer.EOF {
				break
			}
		}
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestParserNeverPanics feeds arbitrary bytes to the parser.
func TestParserNeverPanics(t *testing.T) {
	f := func(src []byte) bool {
		res, _ := parser.Parse(parser.Input{Name: "fuzz", Src: string(src)})
		return res != nil // a Result is always returned, error or not
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestParserNeverPanicsOnStructuredJunk assembles random token soup that
// is lexically valid but grammatically hostile.
func TestParserNeverPanicsOnStructuredJunk(t *testing.T) {
	frags := []string{
		"a", "b.c", ".dom", "=", "{", "}", ",", "!", "@", "%",
		"(10)", "(HOURLY)", "(BAD", "\n", " ", "private", "dead",
		"adjust", "gateway", "file", "delete", "gatewayed",
	}
	f := func(picks []uint16) bool {
		var sb strings.Builder
		for _, p := range picks {
			sb.WriteString(frags[int(p)%len(frags)])
			sb.WriteByte(' ')
		}
		res, _ := parser.ParseString("junk", sb.String())
		return res != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestEvalNeverPanics feeds arbitrary strings to the cost evaluator.
func TestEvalNeverPanics(t *testing.T) {
	f := func(expr string) bool {
		v, err := cost.Eval(expr)
		if err == nil && (v < 0 || v > cost.Infinity) {
			return false
		}
		_, _ = cost.EvalSigned(expr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestPipelineNeverPanicsOnRandomMaps runs the full pipeline over random
// structurally-valid maps, checking output invariants.
func TestPipelineNeverPanicsOnRandomMaps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		n := 20 + rng.Intn(60)
		for i := 1; i < n; i++ {
			fmt.Fprintf(&sb, "r%d r%d(%d)\n", rng.Intn(i), i, 25+rng.Intn(5000))
		}
		// Random feature sprinkles.
		fmt.Fprintf(&sb, "NET = {r1, r2, r3}(%d)\n", 25+rng.Intn(100))
		fmt.Fprintf(&sb, ".d%d = {r4, r5}\n", seed)
		fmt.Fprintf(&sb, "r6 = r6-alias\n")
		fmt.Fprintf(&sb, "dead {r%d}\n", rng.Intn(n-1)+1)
		fmt.Fprintf(&sb, "adjust {r%d(+%d)}\n", rng.Intn(n-1)+1, rng.Intn(100))

		res, err := RunString(Options{LocalHost: "r0"}, sb.String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, rt := range res.Routes {
			if strings.Count(rt.Format, "%s") != 1 {
				t.Fatalf("seed %d: malformed route %q", seed, rt.Format)
			}
			if rt.Cost < 0 {
				t.Fatalf("seed %d: negative cost %d for %s", seed, rt.Cost, rt.Host)
			}
		}
	}
}

// TestTriangleInequalityWithoutHeuristics: with all penalties off and no
// adjustments, mapped costs satisfy cost(v) ≤ cost(u) + w(u,v) over every
// usable edge — the Dijkstra relaxation invariant. (The heuristics
// intentionally break this; the paper admits the model is "sullied".)
func TestTriangleInequalityWithoutHeuristics(t *testing.T) {
	inputs, local := mapgen.Generate(mapgen.Scaled(800, 3))
	pres, err := parser.Parse(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	g := pres.Graph
	src, _ := g.Lookup(local)
	opts := mapper.Options{BackLinks: true} // all penalties zero
	mres, err := mapper.Run(g, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(l *graph.Link) {
		mc := mres.Machine
		iu, iv := mc.Winner(l.From), mc.Winner(l.To)
		if !l.Usable() || iu < 0 || iv < 0 {
			return
		}
		if wu, wv := mc.Label(iu), mc.Label(iv); wv.Cost > wu.Cost.Add(l.Cost) {
			t.Fatalf("triangle violated: cost(%s)=%v > cost(%s)=%v + w=%v",
				l.To.Name, wv.Cost, l.From.Name, wu.Cost, l.Cost)
		}
	}
	for _, u := range g.Nodes() {
		for l := u.FirstLink(); l != nil; l = l.Next {
			check(l)
		}
	}
	for _, l := range mres.Invented {
		check(l)
	}
}

// TestMultiFileSemanticsCombined: private scoping, duplicate folding, and
// dead links interact correctly across three files.
func TestMultiFileSemanticsCombined(t *testing.T) {
	res, err := Run(Options{LocalHost: "origin"},
		Input{Name: "site-a", Text: `origin shared(100), bilbo(10)
bilbo deep(10)
`},
		Input{Name: "site-b", Text: `private {bilbo}
bilbo other(10)
other origin(10)
origin shared(50)
`},
		Input{Name: "site-c", Text: `shared tail(25)
dead {origin!shared}
`},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate origin->shared folded to the cheaper 50, then marked dead
	// by site-c, so shared is reached at penalty cost.
	rt, ok := res.Lookup("shared")
	if !ok {
		t.Fatal("no route to shared")
	}
	if rt.Cost < 50+int64(mapper.DefaultDeadPenalty) {
		t.Errorf("shared cost %d does not reflect dead link penalty", rt.Cost)
	}
	// The global bilbo chain still works.
	if rt, ok := res.Lookup("deep"); !ok || rt.Format != "bilbo!deep!%s" {
		t.Errorf("deep = %+v, %v", rt, ok)
	}
	// The private bilbo's neighbor is reachable (via back links through
	// other->origin), and "bilbo" appears exactly once in output.
	count := 0
	for _, r := range res.Routes {
		if r.Host == "bilbo" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("bilbo printed %d times", count)
	}
}

// TestSecondBestNeverWorse: enabling second-best can only improve (or
// keep) every host's cost.
func TestSecondBestNeverWorse(t *testing.T) {
	inputs, local := mapgen.Generate(mapgen.Scaled(600, 9))
	var pins []Input
	for _, in := range inputs {
		pins = append(pins, Input{Name: in.Name, Text: string(in.Src)})
	}
	plain, err := Run(Options{LocalHost: local}, pins...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(Options{LocalHost: local, SecondBest: true}, pins...)
	if err != nil {
		t.Fatal(err)
	}
	plainCosts := map[string]int64{}
	for _, rt := range plain.Routes {
		plainCosts[rt.Host] = rt.Cost
	}
	improved := 0
	for _, rt := range second.Routes {
		pc, ok := plainCosts[rt.Host]
		if !ok {
			continue
		}
		if rt.Cost > pc {
			t.Errorf("second-best made %s worse: %d > %d", rt.Host, rt.Cost, pc)
		}
		if rt.Cost < pc {
			improved++
		}
	}
	t.Logf("second-best improved %d of %d routes", improved, len(second.Routes))
}

// TestRunIsDeterministic: byte-identical output across repeated runs.
func TestRunIsDeterministic(t *testing.T) {
	inputs, local := mapgen.Generate(mapgen.Small())
	var pins []Input
	for _, in := range inputs {
		pins = append(pins, Input{Name: in.Name, Text: string(in.Src)})
	}
	var outs [2]string
	for i := range outs {
		res, err := Run(Options{LocalHost: local, PrintCosts: true, SortByCost: true}, pins...)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := res.WriteRoutes(&sb); err != nil {
			t.Fatal(err)
		}
		outs[i] = sb.String()
	}
	if outs[0] != outs[1] {
		t.Error("repeated runs differ")
	}
}
