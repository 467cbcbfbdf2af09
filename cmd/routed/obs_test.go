package main

// Tests for the telemetry surface: /metrics exposition and its
// agreement with /stats, the /healthz+/readyz lifecycle (warm-up and
// audit demotion), the re-map stage traces (/lastmap and the `trace`
// command), the stats-line latency fields, and the serve-path cost of
// the instrumentation itself.

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"pathalias/internal/obs"
	"pathalias/internal/routedb"
)

// metricValue finds one sample by name and exact label subset match.
func metricValue(t *testing.T, samples []obs.Sample, name string, labels map[string]string) float64 {
	t.Helper()
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s.Value
		}
	}
	t.Fatalf("no sample %s%v in scrape", name, labels)
	return 0
}

// scrapeMetrics GETs /metrics off the daemon's handler and parses it.
func scrapeMetrics(t *testing.T, d *daemon) []obs.Sample {
	t.Helper()
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	return samples
}

// TestMetricsEndpoint drives traffic through a -map daemon and checks
// that the scrape carries every metric family the issue promises, with
// values that agree with /stats.
func TestMetricsEndpoint(t *testing.T) {
	d := newTestMapDaemon(t)
	d.metrics.registerBuildInfo("test-build", "some/routes.rdb")

	// Prime the counters: pipelined resolves (hit, suffix-miss territory,
	// miss), a what-if overlay resolve, and one impact query.
	in := strings.NewReader("duke honey\nresearch lou\nnowhere u\noverlay=dead,unc,duke research honey\n")
	var out strings.Builder
	if err := d.serveConn(in, &out); err != nil {
		t.Fatal(err)
	}

	samples := scrapeMetrics(t, d)

	// Request histogram: the line surface counts every line-protocol
	// request (4); the what-if form is additionally timed individually
	// under the whatif surface.
	lineCount := metricValue(t, samples, "routed_request_seconds_count", map[string]string{"surface": "line"})
	if lineCount != 4 {
		t.Errorf("line request count = %v, want 4", lineCount)
	}
	wfCount := metricValue(t, samples, "routed_request_seconds_count", map[string]string{"surface": "whatif"})
	if wfCount != 1 {
		t.Errorf("whatif request count = %v, want 1", wfCount)
	}

	// Resolver counters, read live off the store.
	st := d.store.DB().Stats()
	if got := metricValue(t, samples, "routed_resolves_total", map[string]string{"outcome": "hit"}); got != float64(st.Hits) {
		t.Errorf("hit counter = %v, store says %d", got, st.Hits)
	}
	if got := metricValue(t, samples, "routed_resolves_total", map[string]string{"outcome": "miss"}); got != float64(st.Misses) {
		t.Errorf("miss counter = %v, store says %d", got, st.Misses)
	}

	// Engine and what-if families exist with sane values.
	if got := metricValue(t, samples, "routed_map_generation", nil); got < 1 {
		t.Errorf("map generation = %v, want >= 1", got)
	}
	if got := metricValue(t, samples, "routed_remap_updates_total", map[string]string{"result": "changed"}); got < 1 {
		t.Errorf("changed updates = %v, want >= 1", got)
	}
	if got := metricValue(t, samples, "routed_whatif_cache_total", map[string]string{"event": "miss"}); got < 1 {
		t.Errorf("whatif cache misses = %v, want >= 1 after an overlay eval", got)
	}
	ws := d.mw.whatif.Stats()
	warm := metricValue(t, samples, "routed_whatif_runs_total", map[string]string{"start": "warm"})
	full := metricValue(t, samples, "routed_whatif_runs_total", map[string]string{"start": "full"})
	if warm != float64(ws.WarmRuns) || full != float64(ws.FullRuns) || warm+full != float64(ws.Misses) {
		t.Errorf("whatif runs warm=%v full=%v, evaluator says %+v", warm, full, ws)
	}
	if got := metricValue(t, samples, "routed_routes", nil); got != float64(d.store.Len()) {
		t.Errorf("routed_routes = %v, store has %d", got, d.store.Len())
	}
	if got := metricValue(t, samples, "routed_overlay_eval_seconds_count", map[string]string{"result": "cold"}); got < 1 {
		t.Errorf("cold overlay evals = %v, want >= 1", got)
	}

	// Build identity.
	if got := metricValue(t, samples, "routed_build_info", map[string]string{"version": "test-build"}); got != 1 {
		t.Errorf("routed_build_info = %v, want 1", got)
	}
	if got := metricValue(t, samples, "routed_image_info", map[string]string{"path": "some/routes.rdb"}); got != 1 {
		t.Errorf("routed_image_info = %v, want 1", got)
	}

	// /stats carries the identity fields and a latency summary that
	// agrees with the histogram count.
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"version", "uptime_secs", "generation", "latency"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/stats missing %q: %v", key, stats)
		}
	}
	lat, _ := stats["latency"].(map[string]any)
	line, _ := lat["line"].(map[string]any)
	if line == nil || line["count"] != float64(4) {
		t.Errorf("/stats latency.line = %v, want count 4", lat)
	}
}

// TestReadyzLifecycle walks /readyz through both 503 windows: the
// warm-start window (engine still computing) and a real audit demotion
// (a published image that passes the open-path checks but fails deep
// verification).
func TestReadyzLifecycle(t *testing.T) {
	d := newTestMapDaemon(t)
	srv := httptest.NewServer(d.handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("ready daemon: /readyz = %d, want 200", code)
	}

	// Warm-start window: the engine's first computation has not landed
	// (pinned by an unclosed ready channel).
	ready := d.mw.ready
	d.mw.ready = make(chan struct{})
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "warming up") {
		t.Fatalf("warming: /readyz = %d %q, want 503 warming up", code, body)
	}
	d.mw.ready = ready
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("warmed: /readyz = %d, want 200", code)
	}

	// Audit demotion, through the real path: serve a corrupt image,
	// wait for the background deep verification to demote.
	dir := t.TempDir()
	bad := corruptHiddenEntry(t, batchImage(t, testMapSrc))
	badPath := filepath.Join(dir, "routes.rdb")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	bd, err := newDaemon(badPath, true, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatalf("corrupt image should open (checks are deferred): %v", err)
	}
	t.Cleanup(bd.audits.Wait)
	bd.audits.Wait()
	if !bd.demoted.Load() {
		t.Fatal("audit did not demote the corrupt image")
	}
	bsrv := httptest.NewServer(bd.handler())
	defer bsrv.Close()
	resp, err := bsrv.Client().Get(bsrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 || !strings.Contains(string(body), "demoted") {
		t.Fatalf("demoted daemon: /readyz = %d %q, want 503 demoted", resp.StatusCode, body)
	}
	if got := bd.metrics.demotions.Load(); got != 1 {
		t.Errorf("demotion counter = %d, want 1", got)
	}

	// A good image replacing the bad one clears the demotion on swap.
	if err := os.WriteFile(badPath+".tmp", batchImage(t, testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(badPath+".tmp", badPath); err != nil {
		t.Fatal(err)
	}
	if err := bd.reload(); err != nil {
		t.Fatal(err)
	}
	bd.audits.Wait()
	resp, err = bsrv.Client().Get(bsrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("after good swap: /readyz = %d, want 200", resp.StatusCode)
	}
}

// TestTraceStageNotes checks that the store and publish stages say
// where their time went: the default store build against the other
// vantages' mapping and their store builds, and the image compile
// against the write and fsync.
func TestTraceStageNotes(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newMapDaemon(routedb.Options{}, io.Discard)
	w, err := newMapWatcher(d, "unc", 8, []string{mapPath}, filepath.Join(dir, "routes.rdb"))
	if err != nil {
		t.Fatal(err)
	}
	// A resident vantage whose routes the edit changes along with the
	// default's: both reach ucbvax over the edited research link.
	if _, err := d.storeFor([]byte("duke")); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(testMapSrc, "ucbvax(DEMAND)", "ucbvax(WEEKLY)", 1)
	if err := os.WriteFile(mapPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.remap(); err != nil {
		t.Fatal(err)
	}
	tr := d.traces.Last()
	if !tr.Published {
		t.Fatal("edit published no image")
	}
	notes := map[string]*regexp.Regexp{
		"store":   regexp.MustCompile(`^default \S+ \+ vantages map \S+ \+ 1 stores \S+$`),
		"publish": regexp.MustCompile(`^compile \S+ \+ write/fsync \S+$`),
	}
	for _, s := range tr.Stages {
		if re := notes[s.Name]; re != nil {
			if !re.MatchString(s.Note) {
				t.Errorf("%s stage note %q does not match %v", s.Name, s.Note, re)
			}
			delete(notes, s.Name)
		}
	}
	for name := range notes {
		t.Errorf("trace has no %s stage", name)
	}
}

// TestTraceLifecycle checks that every effective re-map generation
// leaves a stage trace whose stages account for the generation's wall
// time, that no-op re-maps leave none, and that the trace is reachable
// through all three surfaces: the ring, the `trace` command, and
// GET /lastmap.
func TestTraceLifecycle(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newMapDaemon(routedb.Options{}, io.Discard)
	w, err := newMapWatcher(d, "unc", 8, []string{mapPath}, "")
	if err != nil {
		t.Fatal(err)
	}

	checkTrace := func(tr *obs.Trace, wantGen uint64) {
		t.Helper()
		if tr == nil {
			t.Fatal("no trace recorded")
		}
		if tr.Gen != wantGen {
			t.Errorf("trace gen = %d, want %d", tr.Gen, wantGen)
		}
		if len(tr.Stages) == 0 {
			t.Fatal("trace has no stages")
		}
		names := make([]string, 0, len(tr.Stages))
		for _, s := range tr.Stages {
			names = append(names, s.Name)
		}
		for _, want := range []string{"read", "scan", "map", "store"} {
			found := false
			for _, n := range names {
				if n == want {
					found = true
				}
			}
			if !found {
				t.Errorf("trace stages %v missing %q", names, want)
			}
		}
		// The stages account for the wall time: exactly when an "other"
		// remainder was appended, within measurement jitter otherwise.
		diff := tr.SumStages() - tr.Wall
		if diff < 0 {
			diff = -diff
		}
		if slop := tr.Wall/10 + time.Millisecond; diff > slop {
			t.Errorf("stages sum %v vs wall %v: off by %v (> %v)", tr.SumStages(), tr.Wall, diff, slop)
		}
	}

	// The constructor's initial map is generation 1.
	checkTrace(d.traces.Last(), 1)

	// A resident from= vantage whose routes the edit below leaves alone:
	// ucbvax reaches unc through duke and never uses unc's own links.
	if _, err := d.storeFor([]byte("ucbvax")); err != nil {
		t.Fatal(err)
	}

	// A route-changing edit records generation 2.
	edited := strings.Replace(testMapSrc, "unc\tduke(HOURLY)", "unc\tduke(WEEKLY*10)", 1)
	if err := os.WriteFile(mapPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.remap(); err != nil {
		t.Fatal(err)
	}
	tr := d.traces.Last()
	checkTrace(tr, 2)
	if tr.Seq != 2 {
		t.Errorf("second trace seq = %d, want 2", tr.Seq)
	}
	// The trace says how large the re-map was: the default vantage's
	// labels moved, the ucbvax store was kept, and the patch replayed
	// the one edited link declaration (applied once, undone once).
	if tr.LabelsChanged == 0 || tr.StoresUnchanged != 1 || tr.Replayed != 2 {
		t.Errorf("trace labels_changed=%d stores_unchanged=%d stmts_replayed=%d, want >0, 1 and 2",
			tr.LabelsChanged, tr.StoresUnchanged, tr.Replayed)
	}
	// The scan re-read only the edited statement's stretch of the file.
	if tr.BytesRescanned == 0 || tr.BytesRescanned > 64 {
		t.Errorf("trace bytes_rescanned=%d for a one-link edit of a %d-byte map", tr.BytesRescanned, len(edited))
	}
	// The snapshot copied every row but the edited link's.
	if tr.RowsRebuilt == 0 || tr.RowsRebuilt > 4 {
		t.Errorf("trace rows_rebuilt=%d for a one-link edit", tr.RowsRebuilt)
	}
	for _, st := range tr.Stages {
		if want := fmt.Sprintf("rescanned %d of %d bytes", tr.BytesRescanned, len(edited)); st.Name == "scan" && st.Note != want {
			t.Errorf("scan stage note %q, want %q", st.Note, want)
		}
		if want := fmt.Sprintf("rebuilt %d of %d rows, reverse ", tr.RowsRebuilt, tr.Nodes); st.Name == "snapshot" && !strings.HasPrefix(st.Note, want) {
			t.Errorf("snapshot stage note %q, want prefix %q", st.Note, want)
		}
	}

	// Re-mapping unchanged inputs is a no-op: no new trace.
	if err := w.remap(); err != nil {
		t.Fatal(err)
	}
	if got := d.traces.Last().Seq; got != 2 {
		t.Errorf("no-op remap recorded trace seq %d", got)
	}

	// The `trace` line command renders the newest trace.
	reply, closing := askLine(d, "trace")
	if closing || !strings.HasPrefix(reply, "ok gen=2 ") {
		t.Errorf("trace command = %q, %v", reply, closing)
	}
	for _, field := range []string{"path=", "wall=", "scan=", "routes=",
		fmt.Sprintf("labels_changed=%d", tr.LabelsChanged), "stores_unchanged=1", "stmts_replayed=2",
		fmt.Sprintf("bytes_rescanned=%d", tr.BytesRescanned), fmt.Sprintf("rows_rebuilt=%d", tr.RowsRebuilt)} {
		if !strings.Contains(reply, field) {
			t.Errorf("trace line %q missing %q", reply, field)
		}
	}

	// GET /lastmap returns the newest trace as JSON; ?n= the recent list.
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/lastmap")
	if err != nil {
		t.Fatal(err)
	}
	var got obs.Trace
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Gen != 2 || len(got.Stages) == 0 || got.LabelsChanged != tr.LabelsChanged || got.StoresUnchanged != 1 || got.Replayed != 2 ||
		got.BytesRescanned != tr.BytesRescanned || got.RowsRebuilt != tr.RowsRebuilt {
		t.Errorf("/lastmap = gen %d, %d stages, labels_changed %d, stores_unchanged %d, stmts_replayed %d, bytes_rescanned %d, rows_rebuilt %d; want gen 2 with stages, %d, 1, 2, %d, %d",
			got.Gen, len(got.Stages), got.LabelsChanged, got.StoresUnchanged, got.Replayed, got.BytesRescanned, got.RowsRebuilt,
			tr.LabelsChanged, tr.BytesRescanned, tr.RowsRebuilt)
	}
	resp, err = srv.Client().Get(srv.URL + "/lastmap?n=5")
	if err != nil {
		t.Fatal(err)
	}
	var recent []obs.Trace
	if err := json.NewDecoder(resp.Body).Decode(&recent); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(recent) != 2 || recent[0].Gen != 2 || recent[1].Gen != 1 {
		t.Errorf("/lastmap?n=5 = %d traces, want [gen 2, gen 1]", len(recent))
	}

	// Outside -map mode both surfaces refuse clearly.
	pd, err := newDaemon(writeRoutes(t, t.TempDir(), testRoutes), false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if reply, _ := askLine(pd, "trace"); reply != "err re-map traces require -map mode" {
		t.Errorf("-d mode trace command = %q", reply)
	}
}

// TestStatsLatencyFields: once the line surface has samples, the stats
// line and /stats JSON carry the latency summary — and not before,
// which TestStdinProtocol pins by exact match.
func TestStatsLatencyFields(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if line := d.statsLine(); strings.Contains(line, "line_p50=") {
		t.Errorf("unsampled stats line already has latency: %q", line)
	}
	var out strings.Builder
	if err := d.serveConn(strings.NewReader("duke honey\nunc lou\n"), &out); err != nil {
		t.Fatal(err)
	}
	line := d.statsLine()
	for _, field := range []string{"line_reqs=2", "line_p50=", "line_p99="} {
		if !strings.Contains(line, field) {
			t.Errorf("stats line %q missing %q", line, field)
		}
	}
	snap := d.snapshot()
	if snap.Latency["line"].Count != 2 {
		t.Errorf("snapshot latency = %+v, want line count 2", snap.Latency)
	}
}

// TestMetricsOverhead pins the serve-path cost of the telemetry: the
// same pipelined batch workload through an instrumented daemon and one
// with metrics stripped. The issue budgets ~5%; the assertion leaves
// headroom for scheduler noise on shared runners. Skipped under -short
// (the CI race job); the serve-bench job runs it explicitly.
func TestMetricsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; run without -short")
	}
	path := writeRoutes(t, t.TempDir(), testRoutes)
	mk := func(strip bool) *daemon {
		d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if strip {
			d.metrics = nil
		}
		return d
	}
	var batch strings.Builder
	for i := 0; i < 2000; i++ {
		batch.WriteString("duke honey\ncaip.rutgers.edu pleasant\nunc lou\n")
	}
	input := batch.String()
	run := func(d *daemon) time.Duration {
		start := time.Now()
		if err := d.serveConn(strings.NewReader(input), io.Discard); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	// A paired design: each round times the two daemons back to back
	// (alternating which goes first) and keeps their ratio, so a slow
	// spell of the machine hits both halves of a pair; the verdict is
	// the median ratio. A round is ~1ms, so comparing medians or minimums
	// of the two sides separately swings with whichever side happened to
	// catch a fast or slow moment. Each round also uses a fresh pair of
	// daemons, warmed by one pass each, because one instance can run the
	// same batch tens of percent slower than another for its whole life,
	// with or without metrics.
	const rounds = 21
	ratios := make([]float64, rounds)
	var ti, tb time.Duration
	for i := range ratios {
		instr, bare := mk(false), mk(true)
		run(instr)
		run(bare)
		if i%2 == 0 {
			ti = run(instr)
			tb = run(bare)
		} else {
			tb = run(bare)
			ti = run(instr)
		}
		ratios[i] = float64(ti) / float64(tb)
	}
	sort.Float64s(ratios)
	ratio := ratios[rounds/2]
	t.Logf("instrumented vs bare: median paired ratio %.3f (target <= 1.05, asserting <= 1.25)", ratio)
	if ratio > 1.25 {
		t.Errorf("metrics overhead ratio %.3f (paired ratios %.3f)", ratio, ratios)
	}
}

// TestSlowQueryLog: a threshold of one nanosecond makes every measured
// query slow; the log names the surface and the request, and the
// counter advances. The pipelined plain-resolve path is never measured
// per request and must stay silent.
func TestSlowQueryLog(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	var logBuf strings.Builder
	d := newMapDaemon(routedb.Options{}, &logBuf)
	if _, err := newMapWatcher(d, "unc", 8, []string{mapPath}, ""); err != nil {
		t.Fatal(err)
	}
	d.slowThresh = time.Nanosecond

	var out strings.Builder
	in := strings.NewReader("duke honey\noverlay=dead,unc,duke research honey\n")
	if err := d.serveConn(in, &out); err != nil {
		t.Fatal(err)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "slow query") || !strings.Contains(logs, "overlay=dead,unc,duke") {
		t.Errorf("slow what-if not logged: %q", logs)
	}
	if strings.Contains(logs, "duke honey") {
		t.Errorf("pipelined plain resolve wrongly in the slow log: %q", logs)
	}
	if got := d.metrics.slow.Load(); got != 1 {
		t.Errorf("slow counter = %d, want 1 (the what-if form only)", got)
	}
}

// TestLogLevelGate: the -log-level machinery actually gates output —
// Info messages vanish at warn level, warnings survive.
func TestLogLevelGate(t *testing.T) {
	var buf strings.Builder
	d := newMapDaemon(routedb.Options{}, &buf)
	d.logf("info message %d", 1)
	d.warnf("warn message %d", 2)
	if !strings.Contains(buf.String(), "info message 1") || !strings.Contains(buf.String(), "warn message 2") {
		t.Fatalf("default level lost messages: %q", buf.String())
	}
	buf.Reset()
	d.logLvl.Set(slog.LevelWarn)
	d.logf("info message %d", 3)
	d.warnf("warn message %d", 4)
	if strings.Contains(buf.String(), "info message 3") {
		t.Errorf("warn level leaked info: %q", buf.String())
	}
	if !strings.Contains(buf.String(), "warn message 4") {
		t.Errorf("warn level dropped warning: %q", buf.String())
	}
}

// TestRunBadLogLevel: flag validation fails fast.
func TestRunBadLogLevel(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-d", "x.db", "-stdin", "-log-level", "noisy"}, strings.NewReader(""), &out, &errw)
	if code != 2 || !strings.Contains(errw.String(), "bad -log-level") {
		t.Errorf("run = %d, stderr %q", code, errw.String())
	}
}
