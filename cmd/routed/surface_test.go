package main

// The request path across surfaces: one table of requests answered the
// same way by the line protocol, POST /routes, GET /route and POST
// /whatif, on a -d daemon, a -map daemon and a -map daemon still warming
// up; and the allocation guard on the line protocol's resolve path.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathalias/internal/routedb"
	"pathalias/internal/whatif"
)

// surfaceLines is the cross-surface table, in line-protocol form: plain
// resolves and misses, from= resolves (unknown hosts included), overlay
// resolves, explain and impact, and malformed specs.
var surfaceLines = []string{
	"research honey",
	"ucbvax",
	"nowhere u",
	"duke. honey",
	"from=duke ucbvax honey",
	"from=unc research honey",
	"from=duke nowhere",
	"from=nosuchhost duke honey",
	"overlay=dead,unc,duke research honey",
	"overlay=dead,unc,duke nowhere u",
	"from=duke overlay=dead,duke,phs unc honey",
	"from=nosuchhost overlay=dead,unc,duke research",
	"explain research",
	"explain from=duke research",
	"explain overlay=dead,unc,duke research",
	"explain nosuchhost",
	"explain from=nosuchhost research",
	"impact overlay=dead,unc,duke",
	"impact from=duke overlay=dead,duke,research",
	"overlay=dead,unc research",
	"overlay=dead,unc,nosuch research",
	"overlay=kill,unc,duke research",
	"overlay= research",
	"impact overlay=dead,a,a",
	"explain overlay=cost,unc,research,5 research",
}

// parseSurfaceLine splits a surfaceLines entry into its request and
// whether it carried an overlay= token (possibly empty).
func parseSurfaceLine(line string) (q whatifReq, hasOverlay bool) {
	f := strings.Fields(line)
	q.Op, q.User = "resolve", "%s"
	if f[0] == "explain" || f[0] == "impact" {
		q.Op, f = f[0], f[1:]
	}
	for ; len(f) > 0; f = f[1:] {
		if v, ok := strings.CutPrefix(f[0], "from="); ok {
			q.From = v
		} else if v, ok := strings.CutPrefix(f[0], "overlay="); ok {
			q.Overlay, hasOverlay = v, true
		} else {
			break
		}
	}
	if len(f) > 0 {
		q.Dest = f[0]
	}
	if len(f) > 1 {
		q.User = f[1]
	}
	return q, hasOverlay
}

// surfaceDaemons builds the three daemons of the cross-surface table,
// all serving the routes of testMapSrc from unc: -d over the batch
// image, -map, and a -map daemon still warming up, serving that image
// (warmingDaemon).
func surfaceDaemons(t *testing.T) map[string]*daemon {
	t.Helper()
	odb := filepath.Join(t.TempDir(), "routes.rdb")
	if err := os.WriteFile(odb, batchImage(t, testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	dd, err := newDaemon(odb, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dd.audits.Wait)
	return map[string]*daemon{"d": dd, "map": newTestMapDaemon(t), "warming": warmingDaemon(t, io.Discard)}
}

// TestSurfacesAgree runs surfaceLines on every daemon and surface. The
// line reply is the reference: POST /routes answers the same line; GET
// /route and POST /whatif, where they can express the request, answer
// the same address (or the same explain and impact, rendered from their
// JSON) or the same error text. A status is 200 for an answer, 404 for a
// GET /route plain or from= resolve that found no route, and 400 for
// every other error. Plain resolves answer alike on all three daemons.
func TestSurfacesAgree(t *testing.T) {
	plain := map[string]string{}
	for name, d := range surfaceDaemons(t) {
		srv := httptest.NewServer(d.handler())
		defer srv.Close()
		for _, line := range surfaceLines {
			q, hasOverlay := parseSurfaceLine(line)
			want, _ := askLine(d, line)
			if !strings.HasPrefix(want, "ok ") && !strings.HasPrefix(want, "err ") {
				t.Fatalf("%s %q: line reply %q", name, line, want)
			}
			if q.Op == "resolve" && q.From == "" && !hasOverlay {
				if prev, ok := plain[line]; ok && prev != want {
					t.Errorf("%q: %s answers %q, another daemon %q", line, name, want, prev)
				}
				plain[line] = want
			}
			// wantHTTP checks one HTTP answer against the line reply.
			wantHTTP := func(surface string, code int, got string, notFound bool) {
				t.Helper()
				wantCode, wantBody := 200, strings.TrimPrefix(want, "ok ")
				if e, ok := strings.CutPrefix(want, "err "); ok {
					wantCode, wantBody = 400, e
					if notFound && strings.HasPrefix(e, "routedb: no route to") {
						wantCode = 404
					}
				}
				if code != wantCode || got != wantBody {
					t.Errorf("%s %s %q: %d %q, want %d %q", name, surface, line, code, got, wantCode, wantBody)
				}
			}

			resp, err := http.Post(srv.URL+"/routes", "text/plain", strings.NewReader(line+"\n"))
			if err != nil {
				t.Fatal(err)
			}
			if got := readBody(t, resp); got != want {
				t.Errorf("%s POST /routes %q = %q, want %q", name, line, got, want)
			}

			if q.Op == "resolve" && (!hasOverlay || q.Overlay != "") {
				v := url.Values{"dest": {q.Dest}, "user": {q.User}}
				if q.From != "" {
					v.Set("from", q.From)
				}
				if q.Overlay != "" {
					v.Set("overlay", q.Overlay)
				}
				resp, err := http.Get(srv.URL + "/route?" + v.Encode())
				if err != nil {
					t.Fatal(err)
				}
				wantHTTP("GET /route", resp.StatusCode, readBody(t, resp), !hasOverlay)
			}

			if (q.Op == "resolve" && hasOverlay) || (q.Op == "explain" && (!hasOverlay || q.Overlay != "")) ||
				(q.Op == "impact" && q.Overlay != "") {
				body, _ := json.Marshal(q)
				resp, err := http.Post(srv.URL+"/whatif", "application/json", strings.NewReader(string(body)))
				if err != nil {
					t.Fatal(err)
				}
				code, got := resp.StatusCode, readBody(t, resp)
				if code == 200 {
					got = strings.TrimPrefix(jsonLineReply(t, q.Op, got), "ok ")
				}
				wantHTTP("POST /whatif", code, got, false)
			}
		}
	}
}

// readBody returns a response body without its final newline.
func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(string(b), "\n")
}

// jsonLineReply decodes a POST /whatif answer and renders it as the
// line protocol would.
func jsonLineReply(t *testing.T, op, body string) string {
	t.Helper()
	var ans any
	switch op {
	case "resolve":
		var r struct{ Address string }
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		ans = r.Address
	case "explain":
		ans = new(whatif.ExplainResult)
	default:
		ans = new(whatif.Impact)
	}
	if op != "resolve" {
		if err := json.Unmarshal([]byte(body), ans); err != nil {
			t.Fatalf("%s answer %s: %v", op, body, err)
		}
	}
	return lineReply(ans, nil)
}

// TestLineResolveAllocs pins the serving hot path at zero allocations
// per request: a hit, a suffix hit and a miss on a -db daemon, and a
// resident from= vantage on a -map daemon.
func TestLineResolveAllocs(t *testing.T) {
	td, err := newDaemon(writeRoutes(t, t.TempDir(), testRoutes), false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	db, err := newDaemonBinaryFile(td, filepath.Join(t.TempDir(), "routes.rdb"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.audits.Wait)
	md := newTestMapDaemon(t)
	if got, _ := askLine(md, "from=duke ucbvax honey"); got != "ok research!ucbvax!honey" {
		t.Fatalf("spinning up the duke vantage: %q", got)
	}
	for _, c := range []struct {
		d          *daemon
		line, want string
	}{
		{db, "duke honey", "ok duke!honey"},
		{db, "x.dept.edu pleasant", "ok seismo!x.dept.edu!pleasant"},
		{db, "nowhere u", `err routedb: no route to "nowhere"`},
		{md, "from=duke ucbvax honey", "ok research!ucbvax!honey"},
	} {
		st := new(lineState)
		line := []byte(c.line)
		var out []byte
		allocs := testing.AllocsPerRun(100, func() {
			out, _ = c.d.handleLine(out[:0], line, st, true)
		})
		if string(out) != c.want {
			t.Errorf("%q = %q, want %q", c.line, out, c.want)
		}
		if allocs != 0 {
			t.Errorf("%q: %v allocations per request, want 0", c.line, allocs)
		}
	}
}
