package pathalias

import (
	"strings"
	"testing"
)

// TestEngineMatchesRun holds a single-source MultiEngine to its
// contract: after any Update, the result is identical to a fresh Run
// over the same inputs.
func TestEngineMatchesRun(t *testing.T) {
	const src = `unc	duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), research(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND)
ucbvax	research(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
`
	opts := Options{LocalHost: "unc", PrintCosts: true}
	eng, err := NewMultiEngine(opts)
	if err != nil {
		t.Fatal(err)
	}

	check := func(label, text string) {
		t.Helper()
		if err := eng.Update(Input{Name: "m.map", Text: text}); err != nil {
			t.Fatalf("%s: Update: %v", label, err)
		}
		got, err := eng.Result()
		if err != nil {
			t.Fatalf("%s: Result: %v", label, err)
		}
		want, err := RunString(opts, text)
		if err != nil {
			t.Fatalf("%s: Run: %v", label, err)
		}
		var gw, ww strings.Builder
		if err := got.WriteRoutes(&gw); err != nil {
			t.Fatal(err)
		}
		if err := want.WriteRoutes(&ww); err != nil {
			t.Fatal(err)
		}
		if gw.String() != ww.String() {
			t.Fatalf("%s: engine and Run diverge\nengine:\n%s\nrun:\n%s", label, gw.String(), ww.String())
		}
		if len(got.Unreachable) != len(want.Unreachable) {
			t.Fatalf("%s: unreachable %v vs %v", label, got.Unreachable, want.Unreachable)
		}
	}

	check("initial", src)
	check("cost edit", strings.Replace(src, "duke(HOURLY)", "duke(WEEKLY)", 1))
	check("link added", src+"ucbvax\tnewhost(DEMAND)\n")
	check("back to start", src)

	if s := eng.Stats(); s.Incremental == 0 {
		t.Errorf("expected incremental updates, stats %+v", s)
	}
	// Result() returns the latest snapshot; Lookup works on it.
	res, err := eng.Result()
	if err != nil {
		t.Fatalf("Result() after updates: %v", err)
	}
	if r, ok := res.Lookup("duke"); !ok || !strings.Contains(r.Format, "%s") {
		t.Fatalf("Lookup(duke) = %+v, %v", r, ok)
	}
	// The engine result feeds a Database exactly like a Run result.
	db := res.NewDatabase()
	addr, err := db.Resolve("ucbvax", "user")
	if err != nil || addr == "" {
		t.Fatalf("Resolve via engine database: %q, %v", addr, err)
	}
}

// TestEngineErrorKeepsServing: a syntax error leaves the previous
// result intact.
func TestEngineErrorKeepsServing(t *testing.T) {
	eng, err := NewMultiEngine(Options{LocalHost: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(Input{Name: "m", Text: "a\tb(DEMAND)\n"}); err != nil {
		t.Fatal(err)
	}
	before, err := eng.Result()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(Input{Name: "m", Text: "a\tb(((\n"}); err == nil {
		t.Fatal("expected parse error")
	}
	after, err := eng.Result()
	if err != nil || len(after.Routes) != len(before.Routes) {
		t.Fatalf("error update disturbed the serving result: %+v, %v", after, err)
	}
}
