package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
	"pathalias/internal/routedb"
	"pathalias/internal/simnet"
	"pathalias/internal/whatif"
)

// newTestMapDaemon spins a -map daemon over testMapSrc with vantage unc.
func newTestMapDaemon(t testing.TB) *daemon {
	t.Helper()
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newMapDaemon(routedb.Options{}, io.Discard)
	if _, err := newMapWatcher(d, "unc", 8, []string{mapPath}, ""); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWhatIfProtocol drives the what-if line grammar end to end: overlay
// resolves, explain, impact, and — satellite of the fuzz work — every
// hostile input answered with an err reply on a connection that stays
// open.
func TestWhatIfProtocol(t *testing.T) {
	d := newTestMapDaemon(t)
	cases := []struct{ line, want string }{
		// Base resolve unchanged.
		{"research honey", "ok duke!research!honey"},
		// With unc!duke dead the first hop detours through phs.
		{"overlay=dead,unc,duke research honey", "ok phs!duke!research!honey"},
		// Space-separated spec works when quoted into one logical line
		// position — the comma form is the single-token rendering.
		{"from=duke overlay=dead,duke,research ucbvax honey", "ok err"},
		// Explain: base only, then base plus overlay.
		{"explain research", "ok route duke!research!%s cost 3000; unc !> duke link 500 total 500 (link h1 r0); duke !> research link 2500 total 3000 (link h2 r2)"},
		// Impact: the detour re-routes everything that rode unc!duke.
		{"impact overlay=dead,unc,duke", "ok gen=1 routes=5 changed=4 added=0 removed=0 rerouted=4 recosted=0 duke:rerouted phs:rerouted research:rerouted ucbvax:rerouted"},
		// Hostile inputs: all answered, never dropped.
		{"overlay= research", "err whatif: empty overlay spec"},
		{"overlay=dead,unc research", "err whatif: dead wants 2 arguments, got 1"},
		{"overlay=dead,unc,nosuch research", `err whatif: unknown host "nosuch"`},
		{"overlay=cost,unc,research,5 research", "err whatif: no link unc!research"},
		{"overlay=link,unc,duke,5 research", "err whatif: link unc!duke already exists (use cost to override)"},
		{"overlay=dead,unc,duke,extra research", "err whatif: dead wants 2 arguments, got 3"},
		{"impact", "err want: impact [from=host] overlay=spec"},
		{"explain", "err want: explain [from=host] [overlay=spec] dest"},
		{"explain nosuchhost", `ok no route (routedb: no route to "nosuchhost")`},
		{"impact overlay=dead,a,a", "err whatif: self-link a a"},
	}
	for _, c := range cases {
		got, closing := askLine(d, c.line)
		if c.want == "ok err" {
			// from=duke with duke!research dead: ucbvax is unreachable
			// (no other path in testMapSrc), so the resolve errors — but
			// it must still be an err reply.
			if !strings.HasPrefix(got, "err ") {
				t.Errorf("handleLine(%q) = %q, want an err reply", c.line, got)
			}
			continue
		}
		if got != c.want || closing {
			t.Errorf("handleLine(%q) = %q (closing=%v), want %q", c.line, got, closing, c.want)
		}
	}

	// The overlaid explain carries both sides.
	got, _ := askLine(d, "explain overlay=dead,unc,duke research")
	if !strings.HasPrefix(got, "ok base: route duke!research!%s cost 3000") ||
		!strings.Contains(got, "|| overlay: route phs!duke!research!%s cost 5000") {
		t.Errorf("overlaid explain = %q", got)
	}

	// The same grammar through a live pipelined connection: hostile lines
	// interleaved with good ones, one reply per line, connection intact.
	var out bytes.Buffer
	in := strings.NewReader(
		"overlay=dead,unc,nosuch research\n" +
			"overlay=kill,unc,duke research\n" +
			"overlay=dead,unc,duke research honey\n" +
			"impact overlay=dead,unc,duke\n" +
			"quit\n")
	if err := d.serveConn(in, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d replies: %q", len(lines), lines)
	}
	for i, prefix := range []string{"err ", "err ", "ok phs!duke!research!honey", "ok gen=", "ok bye"} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("reply %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}

	// Precompiled (-d) mode refuses what-if but keeps the connection.
	pd, err := newDaemon(writeRoutes(t, t.TempDir(), testRoutes), false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"overlay=dead,a,b duke", "explain duke", "impact overlay=dead,a,b"} {
		if got, closing := askLine(pd, line); got != "err what-if queries require -map mode" || closing {
			t.Errorf("-d mode handleLine(%q) = %q (closing=%v)", line, got, closing)
		}
	}
}

// TestWhatIfStatsShape checks the /stats JSON: -map mode carries the
// overlay cache counters, the mapping runs by start, and per-vantage
// resident route counts; -d mode's JSON shape is unchanged.
func TestWhatIfStatsShape(t *testing.T) {
	d := newTestMapDaemon(t)
	// Prime: one miss, one hit, one extra vantage. The miss starts warm
	// from the resident unc vantage: unc!phs carries no route of unc's.
	if _, err := d.mw.whatif.Resolve("unc", "cost unc phs 100", "research", "h"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.mw.whatif.Resolve("unc", "cost unc phs 100", "research", "h"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.storeFor([]byte("duke")); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Routes int `json:"routes"`
		WhatIf *struct {
			Hits      uint64 `json:"hits"`
			Misses    uint64 `json:"misses"`
			Evictions uint64 `json:"evictions"`
			Resident  int    `json:"resident"`
			WarmRuns  uint64 `json:"warm_runs"`
			FullRuns  uint64 `json:"full_runs"`
		} `json:"whatif"`
		Vantages map[string]int `json:"vantages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.WhatIf == nil || snap.WhatIf.Hits != 1 || snap.WhatIf.Misses != 1 || snap.WhatIf.Resident != 1 ||
		snap.WhatIf.WarmRuns != 1 || snap.WhatIf.FullRuns != 0 {
		t.Errorf("whatif stats = %+v", snap.WhatIf)
	}
	if snap.Vantages["unc"] != 5 || snap.Vantages["duke"] != 5 || len(snap.Vantages) != 2 {
		t.Errorf("vantages = %v", snap.Vantages)
	}
	line := d.statsLine()
	if !strings.Contains(line, "whatif_hits=1") || !strings.Contains(line, "whatif_resident=1") ||
		!strings.Contains(line, "whatif_warm_runs=1 whatif_full_runs=0") || !strings.Contains(line, "vantages=2") {
		t.Errorf("stats line = %q", line)
	}

	// -d mode: no whatif/vantages keys at all.
	pd, err := newDaemon(writeRoutes(t, t.TempDir(), testRoutes), false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(pd.handler())
	defer psrv.Close()
	presp, err := http.Get(psrv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	raw, _ := io.ReadAll(presp.Body)
	var keys map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["whatif"]; ok {
		t.Errorf("-d mode /stats grew a whatif key: %s", raw)
	}
	if _, ok := keys["vantages"]; ok {
		t.Errorf("-d mode /stats grew a vantages key: %s", raw)
	}
}

// TestWhatIfHTTP drives POST /whatif and the /route overlay parameter.
func TestWhatIfHTTP(t *testing.T) {
	d := newTestMapDaemon(t)
	srv := httptest.NewServer(d.handler())
	defer srv.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/whatif", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(b))
	}

	if code, body := post(`{"op":"resolve","overlay":"dead unc duke","dest":"research","user":"honey"}`); code != 200 ||
		body != `{"address":"phs!duke!research!honey"}` {
		t.Errorf("resolve: %d %s", code, body)
	}

	code, body := post(`{"op":"explain","overlay":"dead unc duke","dest":"research"}`)
	if code != 200 {
		t.Fatalf("explain: %d %s", code, body)
	}
	var exp whatif.ExplainResult
	if err := json.Unmarshal([]byte(body), &exp); err != nil {
		t.Fatal(err)
	}
	if !exp.Base.Found || exp.Base.Route != "duke!research!%s" || exp.Under == nil ||
		exp.Under.Route != "phs!duke!research!%s" || len(exp.Under.Hops) != 3 {
		t.Errorf("explain payload: base=%+v under=%+v", exp.Base, exp.Under)
	}

	code, body = post(`{"op":"impact","overlay":"dead unc duke"}`)
	if code != 200 {
		t.Fatalf("impact: %d %s", code, body)
	}
	var imp whatif.Impact
	if err := json.Unmarshal([]byte(body), &imp); err != nil {
		t.Fatal(err)
	}
	if imp.Spec != "dead unc duke" || len(imp.Changed) != 4 || imp.Stats.Rerouted != 4 {
		t.Errorf("impact payload: %+v", imp)
	}

	for _, bad := range []string{
		`{"op":"resolve","overlay":"dead unc nosuch","dest":"research"}`,
		`{"op":"teleport"}`,
		`not json`,
	} {
		if code, _ := post(bad); code != 400 {
			t.Errorf("POST %q: status %d, want 400", bad, code)
		}
	}

	// GET /route with an overlay (comma or %20 space form both fine).
	resp, err := http.Get(srv.URL + "/route?dest=research&user=honey&overlay=dead,unc,duke")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(b)) != "phs!duke!research!honey" {
		t.Errorf("GET overlay route: %d %q", resp.StatusCode, b)
	}
}

// TestWhatIfScenarioSmoke generates an outage/flap scenario, queries
// impact for every step through a real routed over TCP, and checks each
// reported changed-host set against a from-scratch rebuild diff — while
// asserting the served base answers stay byte-identical throughout.
func TestWhatIfScenarioSmoke(t *testing.T) {
	d := newTestMapDaemon(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.serveTCP(ctx, ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	ask := func(line string) string {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatal(err)
		}
		reply, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(reply, "\n")
	}

	pres, err := parser.Parse(parser.Input{Name: "test.map", Src: testMapSrc})
	if err != nil {
		t.Fatal(err)
	}
	links := simnet.OrdinaryLinks(pres.Graph)
	baseReply := ask("research honey")
	baseTable := rebuildTable(t, nil)

	for i, step := range simnet.OutageScenario(links, 11, 12, 3) {
		if len(step.Down) == 0 {
			continue
		}
		sp, err := whatif.ParseSpec(step.OverlaySpec())
		if err != nil {
			t.Fatal(err)
		}
		reply := ask("impact overlay=" + sp.LineToken())
		if !strings.HasPrefix(reply, "ok ") {
			t.Fatalf("step %d (%s): %q", i, sp.Canonical(), reply)
		}
		got := map[string]bool{}
		for _, tok := range strings.Fields(reply[3:]) {
			if h, _, ok := strings.Cut(tok, ":"); ok && !strings.Contains(tok, "=") {
				got[h] = true
			}
		}
		want := changedHosts(baseTable, rebuildTable(t, step.Down))
		if len(got) != len(want) {
			t.Fatalf("step %d (%s): impact reports %v, rebuild diff %v", i, sp.Canonical(), got, want)
		}
		for h := range want {
			if !got[h] {
				t.Fatalf("step %d (%s): rebuild changes %s, impact misses it", i, sp.Canonical(), h)
			}
		}
		// The base serving path is untouched by what-if traffic.
		if r := ask("research honey"); r != baseReply {
			t.Fatalf("step %d: base reply drifted: %q -> %q", i, baseReply, r)
		}
	}
	if r := ask("research honey"); r != baseReply {
		t.Fatalf("base reply drifted after scenario: %q", r)
	}
}

// rebuildTable maps testMapSrc from scratch with the given links deleted.
func rebuildTable(t *testing.T, down []simnet.LinkRef) map[string]printer.Entry {
	t.Helper()
	pres, err := parser.Parse(parser.Input{Name: "test.map", Src: testMapSrc})
	if err != nil {
		t.Fatal(err)
	}
	g := pres.Graph
	for _, l := range down {
		a, _ := g.Lookup(l.From)
		b, _ := g.Lookup(l.To)
		if !g.DeleteLink(a, b) {
			t.Fatalf("no link %s!%s", l.From, l.To)
		}
	}
	local, _ := g.Lookup("unc")
	res, err := mapper.Run(g, local, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]printer.Entry{}
	for _, e := range printer.Routes(res, printer.Options{}) {
		out[e.Host] = e
	}
	return out
}

func changedHosts(base, edited map[string]printer.Entry) map[string]bool {
	want := map[string]bool{}
	for h, be := range base {
		if ee, ok := edited[h]; !ok || ee != be {
			want[h] = true
		}
	}
	for h := range edited {
		if _, ok := base[h]; !ok {
			want[h] = true
		}
	}
	return want
}
