package pathalias

import (
	"io"
	"os"
	"strings"
	"testing"
)

const paperMap = `unc	duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), research(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND)
ucbvax	research(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
`

func TestRunStringPaperExample(t *testing.T) {
	res, err := RunString(Options{LocalHost: "unc", PrintCosts: true, SortByCost: true}, paperMap)
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
		t.Errorf("output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestRouteAddress(t *testing.T) {
	res, err := RunString(Options{LocalHost: "unc"}, paperMap)
	if err != nil {
		t.Fatal(err)
	}
	rt, ok := res.Lookup("mit-ai")
	if !ok {
		t.Fatal("no route to mit-ai")
	}
	if got := rt.Address("honey"); got != "duke!research!ucbvax!honey@mit-ai" {
		t.Errorf("Address = %q", got)
	}
}

func TestStats(t *testing.T) {
	res, err := RunString(Options{LocalHost: "unc"}, paperMap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Hosts != 7 || res.Stats.Nets != 1 {
		t.Errorf("Stats = %+v", res.Stats)
	}
	if res.Stats.Reached != 8 || res.Stats.Extractions == 0 {
		t.Errorf("Stats = %+v", res.Stats)
	}
}

// TestStatsLinksIgnoreVantage: Stats.Links counts the map's links. The
// back links a run invents (for leaf from a, for a and leaf from b) are
// the run's own and must not be counted.
func TestStatsLinksIgnoreVantage(t *testing.T) {
	src := "a b(10)\nleaf b(25)\n"
	for _, local := range []string{"a", "b"} {
		res, err := RunString(Options{LocalHost: local}, src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Links != 2 || res.Stats.BackLinked == 0 {
			t.Errorf("from %s: Stats = %+v, want 2 links and back-linked hosts", local, res.Stats)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := RunString(Options{}, paperMap); err == nil {
		t.Error("missing LocalHost accepted")
	}
	if _, err := Run(Options{LocalHost: "x"}); err == nil {
		t.Error("no inputs accepted")
	}
	if _, err := RunString(Options{LocalHost: "nosuch"}, paperMap); err == nil {
		t.Error("unknown local host accepted")
	}
}

// TestNoPathsLeaveStdinUnread: RunFiles and UpdateFiles with no file
// names are errors, and neither reads the process's standard input,
// even when it holds a valid map.
func TestNoPathsLeaveStdinUnread(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const piped = "a\tb(10)\n"
	if _, err := w.WriteString(piped); err != nil {
		t.Fatal(err)
	}
	w.Close()
	defer func(old *os.File) { os.Stdin = old }(os.Stdin)
	os.Stdin = r

	if res, err := RunFiles(Options{LocalHost: "a"}); err == nil {
		t.Errorf("RunFiles with no paths: %d routes and no error", len(res.Routes))
	}
	eng, err := NewMultiEngine(Options{LocalHost: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.UpdateFiles(); err == nil {
		t.Error("UpdateFiles with no paths: no error")
	}
	if rest, err := io.ReadAll(r); err != nil || string(rest) != piped {
		t.Errorf("standard input left %q (err %v), want %q unread", rest, err, piped)
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	if _, err := RunString(Options{LocalHost: "a"}, "a @@(10)\n"); err == nil {
		t.Error("syntax error not surfaced")
	}
}

func TestDatabaseRoundTrip(t *testing.T) {
	res, err := RunString(Options{LocalHost: "unc"}, paperMap)
	if err != nil {
		t.Fatal(err)
	}
	db := res.NewDatabase()
	if db.Len() != len(res.Routes) {
		t.Errorf("db Len = %d want %d", db.Len(), len(res.Routes))
	}
	addr, err := db.Resolve("stanford", "knuth")
	if err != nil {
		t.Fatal(err)
	}
	if addr != "duke!research!ucbvax!knuth@stanford" {
		t.Errorf("Resolve = %q", addr)
	}

	var sb strings.Builder
	if _, err := db.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadDatabase(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != db.Len() {
		t.Errorf("reloaded Len = %d", db2.Len())
	}
	rt, ok := db2.Lookup("duke")
	if !ok || rt.Format != "duke!%s" || rt.Cost != 500 {
		t.Errorf("reloaded duke = %+v, %v", rt, ok)
	}
}

func TestDomainSuffixThroughPublicAPI(t *testing.T) {
	src := `local	seismo(DEMAND)
seismo	.edu(DEDICATED)
.edu	= {.rutgers}
.rutgers	= {caip}
`
	res, err := RunString(Options{LocalHost: "local"}, src)
	if err != nil {
		t.Fatal(err)
	}
	db := res.NewDatabase()
	// blue.rutgers.edu is not in the map; the suffix search finds .edu.
	addr, err := db.Resolve("blue.rutgers.edu", "pat")
	if err != nil {
		t.Fatal(err)
	}
	if addr != "seismo!blue.rutgers.edu!pat" {
		t.Errorf("Resolve = %q", addr)
	}
}

func TestAvoidOption(t *testing.T) {
	src := "a b(10), c(10)\nb d(10)\nc d(10)\n"
	res, err := RunString(Options{LocalHost: "a", Avoid: []string{"b"}}, src)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := res.Lookup("d")
	if rt.Format != "c!d!%s" {
		t.Errorf("avoid: route to d = %q, want via c", rt.Format)
	}
	// Unknown avoid hosts warn but do not fail.
	res2, err := RunString(Options{LocalHost: "a", Avoid: []string{"ghost"}}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Warnings) == 0 {
		t.Error("no warning for unknown avoid host")
	}
}

func TestSecondBestOption(t *testing.T) {
	src := `a	d1(50), b(100)
.dom	= {caip}(50)
d1	.dom(0)
b	caip(50)
caip	motown(25)
`
	plain, err := RunString(Options{LocalHost: "a"}, src)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := RunString(Options{LocalHost: "a", SecondBest: true}, src)
	if err != nil {
		t.Fatal(err)
	}
	pm, _ := plain.Lookup("motown")
	sm, _ := sb.Lookup("motown")
	if pm.Cost <= sm.Cost {
		t.Errorf("second-best should be cheaper: plain %d vs second-best %d", pm.Cost, sm.Cost)
	}
	if sm.Format != "b!caip!motown!%s" {
		t.Errorf("second-best route = %q", sm.Format)
	}
}

func TestNoBackLinksOption(t *testing.T) {
	src := "a b(10)\nleaf b(25)\n"
	res, err := RunString(Options{LocalHost: "a", NoBackLinks: true}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unreachable) != 1 || res.Unreachable[0] != "leaf" {
		t.Errorf("Unreachable = %v", res.Unreachable)
	}
}

func TestPenaltyOverrides(t *testing.T) {
	// Disabling the domain relay penalty is not possible via 0 (0 means
	// default), but a tiny value changes route selection.
	src := `princeton	caip(200), topaz(300)
.rutgers.edu	= {caip}(200)
.rutgers.edu	motown(LOCAL)
topaz	motown(200)
`
	res, err := RunString(Options{LocalHost: "princeton", DomainRelayPenalty: 1}, src)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := res.Lookup("motown")
	if rt.Cost != 426 { // 425 + the 1-unit penalty
		t.Errorf("cost = %d want 426", rt.Cost)
	}
}
