package pathalias

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const multiTestMap = `unc	duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), research(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND)
ucbvax	research(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
`

// TestMultiEngineMatchesRun holds the public MultiEngine to its
// contract: every vantage's result equals a fresh Run with that
// LocalHost, across updates, with vantages queried concurrently.
func TestMultiEngineMatchesRun(t *testing.T) {
	opts := Options{LocalHost: "unc", PrintCosts: true}
	eng, err := NewMultiEngine(opts)
	if err != nil {
		t.Fatal(err)
	}

	vantages := []string{"unc", "duke", "ucbvax", "mit-ai", "phs"}
	check := func(label, text string) {
		t.Helper()
		if err := eng.Update(Input{Name: "m.map", Text: text}); err != nil {
			t.Fatalf("%s: Update: %v", label, err)
		}
		var wg sync.WaitGroup
		for _, from := range vantages {
			wg.Add(1)
			go func(from string) {
				defer wg.Done()
				got, err := eng.ResultFrom(from)
				if err != nil {
					t.Errorf("%s [%s]: ResultFrom: %v", label, from, err)
					return
				}
				vopts := opts
				vopts.LocalHost = from
				want, err := RunString(vopts, text)
				if err != nil {
					t.Errorf("%s [%s]: Run: %v", label, from, err)
					return
				}
				var gw, ww strings.Builder
				if err := got.WriteRoutes(&gw); err != nil {
					t.Errorf("%s [%s]: %v", label, from, err)
					return
				}
				if err := want.WriteRoutes(&ww); err != nil {
					t.Errorf("%s [%s]: %v", label, from, err)
					return
				}
				if gw.String() != ww.String() {
					t.Errorf("%s [%s]: multi and Run diverge\nmulti:\n%s\nrun:\n%s",
						label, from, gw.String(), ww.String())
				}
			}(from)
		}
		wg.Wait()
	}

	check("initial", multiTestMap)
	check("cost edit", strings.Replace(multiTestMap, "duke(HOURLY)", "duke(WEEKLY)", 1))
	check("link added", multiTestMap+"ucbvax\tnewhost(DEMAND)\n")
	check("back to start", multiTestMap)

	if got := eng.Vantages(); len(got) != len(vantages) {
		t.Errorf("Vantages() = %v, want the %d queried", got, len(vantages))
	}
	if s := eng.Stats(); s.Updates == 0 || s.FullRemaps == 0 {
		t.Errorf("stats look empty: %+v", s)
	}
}

// TestMultiEngineResolvePairs covers the pair-wise batch API: routes
// between arbitrary host pairs, grouped per vantage, with per-pair
// errors for unknown hosts.
// TestMultiEngineSecondBest: with SecondBest the engine's routes are
// byte-identical to a fresh Run on the E16 map, where two nodes hold a
// winning and a non-winning label each.
func TestMultiEngineSecondBest(t *testing.T) {
	const e16 = `a	d1(50), b(100)
.dom	= {caip}(50)
d1	.dom(0)
b	caip(50)
caip	motown(25)
`
	opts := Options{LocalHost: "a", SecondBest: true, PrintCosts: true}
	eng, err := NewMultiEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(Input{Name: "e16.map", Text: e16}); err != nil {
		t.Fatal(err)
	}
	got, err := eng.ResultFrom("a")
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunString(opts, e16)
	if err != nil {
		t.Fatal(err)
	}
	var gw, ww strings.Builder
	if err := got.WriteRoutes(&gw); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteRoutes(&ww); err != nil {
		t.Fatal(err)
	}
	if gw.String() != ww.String() || len(got.Routes) != 6 {
		t.Errorf("engine and Run diverge (%d rows)\nengine:\n%s\nrun:\n%s", len(got.Routes), gw.String(), ww.String())
	}
}

func TestMultiEngineResolvePairs(t *testing.T) {
	eng, err := NewMultiEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(Input{Name: "m.map", Text: multiTestMap}); err != nil {
		t.Fatal(err)
	}

	pairs := []Pair{
		{From: "unc", To: "ucbvax"},
		{From: "ucbvax", To: "unc"},
		{From: "duke", To: "mit-ai"},
		{From: "duke", To: "mit-ai."}, // the absolute spelling
		{From: "unc", To: "nosuchhost"},
		{From: "nosuchvantage", To: "unc"},
	}
	out := eng.ResolvePairs(pairs)
	if len(out) != len(pairs) {
		t.Fatalf("got %d results for %d pairs", len(out), len(pairs))
	}
	for i, pr := range out[:4] {
		if pr.Err != nil {
			t.Fatalf("pair %d (%s->%s): %v", i, pr.From, pr.To, pr.Err)
		}
		// Each route must equal the single-source Run's answer.
		want, err := RunString(Options{LocalHost: pr.From}, multiTestMap)
		if err != nil {
			t.Fatal(err)
		}
		wrt, ok := want.Lookup(pr.To)
		if !ok {
			t.Fatalf("fresh run has no route %s->%s", pr.From, pr.To)
		}
		if pr.Route.Format != wrt.Format || pr.Route.Cost != wrt.Cost {
			t.Fatalf("pair %s->%s: got %q(%d), want %q(%d)",
				pr.From, pr.To, pr.Route.Format, pr.Route.Cost, wrt.Format, wrt.Cost)
		}
	}
	if out[4].Err == nil {
		t.Error("expected error for unknown destination")
	}
	if out[5].Err == nil {
		t.Error("expected error for unknown vantage")
	}

	// A route through the pair API substitutes users like any Route.
	if addr := out[2].Route.Address("honey"); !strings.Contains(addr, "honey") {
		t.Errorf("Address substitution broken: %q", addr)
	}
}

// TestMultiEngineNoDefault: a MultiEngine without LocalHost serves any
// vantage but has no default Result.
func TestMultiEngineNoDefault(t *testing.T) {
	eng, err := NewMultiEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(Input{Name: "m.map", Text: multiTestMap}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Result(); err == nil {
		t.Error("Result() without a default vantage should error")
	}
	res, err := eng.ResultFrom("duke")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Lookup("unc"); !ok {
		t.Error("duke vantage should route to unc")
	}
}

// TestMultiEngineUpdateRefreshesResident: Update and UpdateFiles leave
// every resident vantage recomputed, not only the default, so the
// ResultFrom calls after them run no mapping and answer like a fresh Run.
func TestMultiEngineUpdateRefreshesResident(t *testing.T) {
	opts := Options{LocalHost: "unc"}
	eng, err := NewMultiEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	vantages := []string{"unc", "duke", "ucbvax", "phs"}
	if err := eng.Update(Input{Name: "m.map", Text: multiTestMap}); err != nil {
		t.Fatal(err)
	}
	for _, from := range vantages {
		if _, err := eng.ResultFrom(from); err != nil {
			t.Fatal(err)
		}
	}
	runs := func() int { s := eng.Stats(); return s.Incremental + s.FullRemaps }
	path := filepath.Join(t.TempDir(), "m.map")
	edits := []string{
		strings.Replace(multiTestMap, "duke(HOURLY)", "duke(WEEKLY)", 1),
		strings.Replace(multiTestMap, "ucbvax(DEMAND)", "ucbvax(DAILY*3)", 1),
	}
	for i, text := range edits {
		before := runs()
		if i == 0 {
			err = eng.Update(Input{Name: "m.map", Text: text})
		} else if err = os.WriteFile(path, []byte(text), 0o644); err == nil {
			err = eng.UpdateFiles(path)
		}
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if got := runs() - before; got != len(vantages) {
			t.Errorf("edit %d: the update ran %d vantages, want every resident one (%d)", i, got, len(vantages))
		}
		after := runs()
		for _, from := range vantages {
			got, err := eng.ResultFrom(from)
			if err != nil {
				t.Fatal(err)
			}
			vopts := opts
			vopts.LocalHost = from
			name := "m.map"
			if i > 0 {
				name = path
			}
			want, err := Run(vopts, Input{Name: name, Text: text})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprint(got.Routes), fmt.Sprint(want.Routes); g != w {
				t.Errorf("edit %d [%s]: routes differ from a fresh Run\n got: %s\nwant: %s", i, from, g, w)
			}
		}
		if got := runs() - after; got != 0 {
			t.Errorf("edit %d: ResultFrom after the update ran %d vantages, want none", i, got)
		}
	}
}
