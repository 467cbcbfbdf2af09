package main

import (
	"bufio"
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
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pathalias/internal/routedb"
)

// writeRoutes installs content atomically (write + rename), the way
// watched route files are documented to be replaced: the 5ms-tick
// watchers in these tests must never observe a half-written file.
func writeRoutes(t *testing.T, dir, content string) string {
	t.Helper()
	path := filepath.Join(dir, "routes.db")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	return path
}

const testRoutes = "500\tduke\tduke!%s\n10\t.edu\tseismo!%s\n0\tunc\t%s\n"

// goWatch runs a watch loop until the test ends. Its cleanup cancels
// and joins the loop before earlier-registered cleanups (audit joins,
// temp-dir removal) run, so no reload outlives the test's files.
func goWatch(t *testing.T, watch func(ctx context.Context)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		watch(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

func TestStdinProtocol(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	in := strings.NewReader("duke honey\ncaip.rutgers.edu pleasant\nnowhere u\nstats\nbogus line here\nquit\n")
	var out, errw strings.Builder
	if code := run([]string{"-d", path, "-stdin", "-watch", "0"}, in, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	want := []string{
		"ok duke!honey",
		"ok seismo!caip.rutgers.edu!pleasant",
		`err routedb: no route to "nowhere"`,
		"ok routes=3 swaps=1 lookups=0 resolves=3 hits=1 suffix_hits=1 misses=1",
		"err want: [from=host] [overlay=spec] dest [user]",
		"ok bye",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d reply lines: %q", len(lines), lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("reply %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errw strings.Builder
	if code := run(nil, strings.NewReader(""), &out, &errw); code != 2 {
		t.Errorf("no args: run = %d", code)
	}
	if code := run([]string{"-d", "nosuch.db", "-stdin"}, strings.NewReader(""), &out, &errw); code != 1 {
		t.Errorf("missing file: run = %d", code)
	}
}

func TestTCPProtocol(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
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
	rd := bufio.NewScanner(conn)
	ask := func(req string) string {
		t.Helper()
		if _, err := fmt.Fprintln(conn, req); err != nil {
			t.Fatal(err)
		}
		if !rd.Scan() {
			t.Fatalf("no reply to %q: %v", req, rd.Err())
		}
		return rd.Text()
	}
	if got := ask("duke honey"); got != "ok duke!honey" {
		t.Errorf("resolve = %q", got)
	}
	if got := ask("x.dept.edu"); got != "ok seismo!x.dept.edu!%s" {
		t.Errorf("default-user resolve = %q", got)
	}
	if got := ask("quit"); got != "ok bye" {
		t.Errorf("quit = %q", got)
	}
}

// flakyListener is a net.Listener whose Accept plays a script: an
// error fails the call, nil hands out a connection whose peer has hung
// up, and past the script the listener reports itself closed. It
// records when each scripted call, and the first call past it, came.
type flakyListener struct {
	script []error
	mu     sync.Mutex
	calls  []time.Time
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := len(l.calls)
	if i >= len(l.script) {
		if i == len(l.script) {
			l.calls = append(l.calls, time.Now())
		}
		return nil, net.ErrClosed
	}
	l.calls = append(l.calls, time.Now())
	if err := l.script[i]; err != nil {
		return nil, err
	}
	c, peer := net.Pipe()
	peer.Close()
	return c, nil
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// logCounter counts the log messages written to it that begin with
// prefix, keeping nothing else; it is safe to read while a loop logs.
type logCounter struct {
	prefix string
	n      atomic.Int64
}

func (c *logCounter) Write(p []byte) (int, error) {
	c.n.Add(int64(strings.Count(string(p), `msg="`+c.prefix)))
	return len(p), nil
}

// waitCount waits until c has counted want messages, then for a few
// dozen more watch wake-ups, and fails unless the count is still want.
func waitCount(t *testing.T, c *logCounter, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.n.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if got := c.n.Load(); got != want {
		t.Fatalf("%s: %d %q messages logged, want %d", what, got, c.prefix, want)
	}
}

// TestAcceptBacksOff: a failing Accept (EMFILE) is retried after a
// pause that doubles from acceptBackoffMin, one warning per failure;
// a success resets the pause; and a closed listener ends serveTCP.
func TestAcceptBacksOff(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	logs := &logCounter{prefix: "accept:"}
	d, err := newDaemon(path, false, routedb.Options{}, logs)
	if err != nil {
		t.Fatal(err)
	}
	emfile := &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	const rising = 6 // failures in a row: pauses 5, 10, 20, 40, 80, 160 ms
	var script []error
	for range rising {
		script = append(script, emfile)
	}
	script = append(script, nil, emfile)
	ln := &flakyListener{script: script}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.serveTCP(ctx, ln)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		cancel()
		<-done
		t.Fatal("serveTCP kept accepting from a closed listener")
	}

	ln.mu.Lock()
	calls := ln.calls
	ln.mu.Unlock()
	if len(calls) != len(script)+1 {
		t.Fatalf("%d Accept calls, want %d", len(calls), len(script)+1)
	}
	for i := range rising {
		want := acceptBackoffMin << i
		if gap := calls[i+1].Sub(calls[i]); gap < want {
			t.Errorf("retry %d came %v after the failure, want at least %v", i+1, gap, want)
		}
	}
	// The failure after the success pauses acceptBackoffMin again, not
	// the next doubling (320 ms).
	if gap := calls[rising+2].Sub(calls[rising+1]); gap >= 250*time.Millisecond {
		t.Errorf("pause after a success = %v, want it reset to %v", gap, acceptBackoffMin)
	}
	if got := logs.n.Load(); got != rising+1 {
		t.Errorf("%d accept warnings, want one per failure (%d)", got, rising+1)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.handler())
	defer srv.Close()

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get(srv.URL + "/route?dest=caip.rutgers.edu&user=pleasant"); code != 200 || strings.TrimSpace(body) != "seismo!caip.rutgers.edu!pleasant" {
		t.Errorf("/route = %d %q", code, body)
	}
	if code, _ := get(srv.URL + "/route?dest=nowhere"); code != 404 {
		t.Errorf("/route miss = %d", code)
	}
	if code, _ := get(srv.URL + "/route"); code != 400 {
		t.Errorf("/route without dest = %d", code)
	}
	if code, body := get(srv.URL + "/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	code, body := get(srv.URL + "/stats")
	if code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	var s statsSnapshot
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("/stats body %q: %v", body, err)
	}
	if s.Routes != 3 || s.Swaps != 1 || s.Resolves != 2 || s.SuffixHits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestWatchHotSwapsOnChange(t *testing.T) {
	dir := t.TempDir()
	path := writeRoutes(t, dir, testRoutes)
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	goWatch(t, func(ctx context.Context) { d.watch(ctx, 5*time.Millisecond) })

	// Rewrite the file with a different route and an mtime guaranteed to
	// differ even on coarse filesystem clocks.
	writeRoutes(t, dir, "500\tduke\tVIA-NEW!%s\n")
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e, ok := d.store.Lookup("duke"); ok && e.Route == "VIA-NEW!%s" {
			break
		}
		if time.Now().After(deadline) {
			e, ok := d.store.Lookup("duke")
			t.Fatalf("hot swap never happened; duke = %+v, %v", e, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d.store.Len() != 1 {
		t.Errorf("Len after swap = %d", d.store.Len())
	}

	// A broken rewrite must not take down the serving database.
	writeRoutes(t, dir, "not\ta\tvalid\tdb\n")
	future = future.Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if e, ok := d.store.Lookup("duke"); !ok || e.Route != "VIA-NEW!%s" {
		t.Errorf("broken reload dropped the database: %+v, %v", e, ok)
	}
}

// TestWatchSameSecondRewrite is the staleness regression, end to end: a
// rewrite that preserves the file's mtime AND size (the same-second
// rewrite a coarse-granularity filesystem produces) must still be
// served, via fswatch.Watch's settle window and reload's byte compare.
// The detector's own cases live in internal/fswatch.
func TestWatchSameSecondRewrite(t *testing.T) {
	dir := t.TempDir()
	path := writeRoutes(t, dir, testRoutes)
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Same byte count, same mtime, different content.
	altered := strings.Replace(testRoutes, "duke!%s", "DUKE!%s", 1)
	if len(altered) != len(testRoutes) {
		t.Fatal("altered content must keep the size")
	}
	if err := os.WriteFile(path, []byte(altered), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}

	goWatch(t, func(ctx context.Context) { d.watch(ctx, 5*time.Millisecond) })
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e, ok := d.store.Lookup("duke"); ok && e.Route == "DUKE!%s" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watch never picked up the same-second rewrite")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReloadComparesBytes: reload tells an unchanged route file by its
// bytes, not by a fingerprint. An in-place rewrite of the same length
// reloads; an identical rewrite does not, and neither does a malformed
// file read a second time.
func TestReloadComparesBytes(t *testing.T) {
	dir := t.TempDir()
	path := writeRoutes(t, dir, testRoutes)
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reload := func(wantSwaps uint64, wantErr bool) {
		t.Helper()
		if err := d.reload(); (err != nil) != wantErr {
			t.Fatalf("reload error %v, want error %v", err, wantErr)
		}
		if got := d.swaps.Load(); got != wantSwaps {
			t.Fatalf("swaps = %d, want %d", got, wantSwaps)
		}
	}

	altered := strings.Replace(testRoutes, "duke!%s", "DUKE!%s", 1)
	rewrite(altered)
	reload(2, false)
	if e, ok := d.store.Lookup("duke"); !ok || e.Route != "DUKE!%s" {
		t.Fatalf("same-length rewrite not served: duke = %+v, %v", e, ok)
	}
	rewrite(altered)
	reload(2, false)

	broken := strings.Replace(altered, "500\t", "5x0\t", 1)
	rewrite(broken)
	reload(2, true)
	reload(2, false) // the same malformed bytes: not parsed again
	rewrite(testRoutes)
	reload(3, false)
	if e, ok := d.store.Lookup("duke"); !ok || e.Route != "duke!%s" {
		t.Fatalf("restored file not served: duke = %+v, %v", e, ok)
	}
}

const testMapSrc = "unc\tduke(HOURLY), phs(HOURLY*4)\nduke\tunc(DEMAND), research(DAILY/2), phs(DEMAND)\nphs\tunc(HOURLY*4), duke(HOURLY)\nresearch\tduke(DEMAND), ucbvax(DEMAND)\nucbvax\tresearch(DAILY)\n"

// TestResidentLookupsDuringRemap: while a re-map's swap pass holds the
// watcher's lock (blocked here in its test hook), a resident from=
// vantage keeps answering, from its store of the previous generation,
// and so does the default vantage; once the pass ends, the from=
// store serves the edit.
func TestResidentLookupsDuringRemap(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newMapDaemon(routedb.Options{}, io.Discard)
	w, err := newMapWatcher(d, "unc", 8, []string{mapPath}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	const fromQ, defQ = "from=duke ucbvax honey", "ucbvax honey"
	before := map[string]string{}
	for _, q := range []string{fromQ, defQ} {
		if before[q], _ = askLine(d, q); !strings.HasPrefix(before[q], "ok ") {
			t.Fatalf("%q = %q before the edit", q, before[q])
		}
	}
	st, err := w.storeFor("duke")
	if err != nil {
		t.Fatal(err)
	}
	old := st.DB()

	entered, release := make(chan struct{}), make(chan struct{})
	w.passHook = func() {
		close(entered)
		<-release
	}
	edited := strings.Replace(testMapSrc, "research(DAILY/2)", "research(WEEKLY)", 1)
	if err := os.WriteFile(mapPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.remap() }()
	<-entered
	answered := make(chan map[string]string, 1)
	go func() {
		during := map[string]string{}
		for _, q := range []string{fromQ, defQ} {
			during[q], _ = askLine(d, q)
		}
		answered <- during
	}()
	select {
	case during := <-answered:
		for q, want := range before {
			if during[q] != want {
				t.Errorf("%q = %q while the pass is blocked, want the previous answer %q", q, during[q], want)
			}
		}
	case <-time.After(5 * time.Second):
		t.Error("lookups waited on the blocked re-map pass")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st.DB() == old {
		t.Error("the duke store was not swapped after the pass")
	}
}

// TestRemapDropsEvictedStores: with room for one vantage besides the
// default, spinning up a second evicts the first from the engine; the
// next re-map drops the evicted vantage's store from the registry, and
// a later query for it spins it up again.
func TestRemapDropsEvictedStores(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newMapDaemon(routedb.Options{}, io.Discard)
	w, err := newMapWatcher(d, "unc", 2, []string{mapPath}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	duke, err := w.storeFor("duke")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.storeFor("ucbvax"); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(testMapSrc, "research(DAILY/2)", "research(WEEKLY)", 1)
	if err := os.WriteFile(mapPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.remap(); err != nil {
		t.Fatal(err)
	}
	counts := w.residentCounts()
	if _, ok := counts["duke"]; ok || len(counts) != 2 {
		t.Errorf("resident stores after the re-map: %v, want unc and ucbvax only", counts)
	}
	again, err := w.storeFor("duke")
	if err != nil {
		t.Fatal(err)
	}
	if again == duke {
		t.Error("the evicted vantage's store was served again instead of a new one")
	}
	if reply, _ := askLine(d, "from=duke ucbvax honey"); reply != "ok research!ucbvax!honey" {
		t.Errorf("from=duke ucbvax honey = %q after the spin-up", reply)
	}
}

// TestMapWatchLogsRepeatedErrorOnce: the watch loop, which re-reads a
// map that stays broken on every wake-up of the settle window, logs its
// error once; it is logged again after a successful re-map, and a
// different error is logged at once.
func TestMapWatchLogsRepeatedErrorOnce(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	write := func(src string) { // whole, so no wake-up reads half a file
		t.Helper()
		if err := os.WriteFile(mapPath+".tmp", []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(mapPath+".tmp", mapPath); err != nil {
			t.Fatal(err)
		}
	}
	write(testMapSrc)
	logs := &logCounter{prefix: "remap: "}
	d := newMapDaemon(routedb.Options{}, logs)
	w, err := newMapWatcher(d, "unc", 64, []string{mapPath}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	goWatch(t, func(ctx context.Context) { w.watch(ctx, time.Millisecond) })

	broken := testMapSrc + "unc\tduke(HOURLY\n"
	write(broken)
	waitCount(t, logs, 1, "a map that stays broken")
	// A success: a route edit, seen served.
	write(strings.Replace(testMapSrc, "unc\tduke(HOURLY)", "unc\tduke(WEEKLY*10)", 1))
	deadline := time.Now().Add(5 * time.Second)
	for e, _ := d.store.Lookup("duke"); e.Route != "phs!duke!%s"; e, _ = d.store.Lookup("duke") {
		if time.Now().After(deadline) {
			t.Fatalf("the fixed map was never served; duke = %+v", e)
		}
		time.Sleep(time.Millisecond)
	}
	write(broken)
	waitCount(t, logs, 2, "the same break after a success")
	write(testMapSrc + "duke\t{\n")
	waitCount(t, logs, 3, "a different break")
}

// TestWatchLogsVanishedFileOnce: routed -d over a route file that is
// deleted logs one reload failure, not one per watch wake-up.
func TestWatchLogsVanishedFileOnce(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	logs := &logCounter{prefix: "reload: "}
	d, err := newDaemon(path, false, routedb.Options{}, logs)
	if err != nil {
		t.Fatal(err)
	}
	goWatch(t, func(ctx context.Context) { d.watch(ctx, time.Millisecond) })
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	waitCount(t, logs, 1, "a deleted route file")
	if e, ok := d.store.Lookup("duke"); !ok || e.Route != "duke!%s" {
		t.Errorf("the previous database stopped serving: duke = %+v, %v", e, ok)
	}
}

// TestMapModeServesAndHotRemaps drives the -map source-watch mode: an
// in-process incremental engine computes the routes, and a source edit
// re-maps and hot-swaps the store.
func TestMapModeServesAndHotRemaps(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newMapDaemon(routedb.Options{}, io.Discard)
	w, err := newMapWatcher(d, "unc", 64, []string{mapPath}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := d.store.Lookup("ucbvax"); !ok || e.Route != "duke!research!ucbvax!%s" {
		t.Fatalf("initial map: ucbvax = %+v, %v", e, ok)
	}

	// Edit: make duke->research prohibitive; route flips via phs? No —
	// research is only reachable via duke; raise unc->duke instead so
	// the first hop goes through phs.
	edited := strings.Replace(testMapSrc, "unc\tduke(HOURLY)", "unc\tduke(WEEKLY*10)", 1)
	if err := os.WriteFile(mapPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	goWatch(t, func(ctx context.Context) { w.watch(ctx, 5*time.Millisecond) })
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e, ok := d.store.Lookup("duke"); ok && e.Route == "phs!duke!%s" {
			break
		}
		if time.Now().After(deadline) {
			e, ok := d.store.Lookup("duke")
			t.Fatalf("hot re-map never happened; duke = %+v, %v (stats %+v)", e, ok, w.eng.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A mid-edit syntax error keeps the previous database serving.
	if err := os.WriteFile(mapPath, []byte("unc\tduke(((\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if e, ok := d.store.Lookup("duke"); !ok || e.Route != "phs!duke!%s" {
		t.Errorf("broken edit dropped the database: %+v, %v", e, ok)
	}
}

// TestRunMapModeUsage checks flag validation for -map.
func TestRunMapModeUsage(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-map", "-stdin"}, strings.NewReader(""), &out, &errw); code != 2 {
		t.Errorf("-map without -l/files: run = %d", code)
	}
	if code := run([]string{"-map", "-l", "unc", "-d", "x.db", "-stdin", "f.map"}, strings.NewReader(""), &out, &errw); code != 2 {
		t.Errorf("-map with -d: run = %d", code)
	}
}

// TestRunMapModeStdin serves the line protocol over stdin in -map mode.
func TestRunMapModeStdin(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader("ucbvax honey\nquit\n")
	var out, errw strings.Builder
	if code := run([]string{"-map", "-l", "unc", "-stdin", "-watch", "0", mapPath}, in, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 2 || lines[0] != "ok duke!research!ucbvax!honey" || lines[1] != "ok bye" {
		t.Fatalf("replies = %q", lines)
	}
}

// TestVantageProtocol drives the multi-source serving path: from=<host>
// on the line protocol and HTTP answers queries from other vantages over
// the shared engine, vantage stores hot-swap on a source edit, and
// precompiled (-d) mode rejects from=.
func TestVantageProtocol(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newMapDaemon(routedb.Options{}, io.Discard)
	w, err := newMapWatcher(d, "unc", 8, []string{mapPath}, "", false)
	if err != nil {
		t.Fatal(err)
	}

	// Line protocol: default vantage vs from= vantages.
	cases := []struct{ line, want string }{
		{"ucbvax honey", "ok duke!research!ucbvax!honey"},
		{"from=duke ucbvax honey", "ok research!ucbvax!honey"},
		{"from=research unc honey", "ok duke!unc!honey"},
		{"from=ucbvax duke honey", "ok research!duke!honey"},
		{"from=nosuchhost duke honey", `err vantage nosuchhost: remap: local host "nosuchhost" not found in input`},
		{"from=duke", "err empty request"},
		{"from=duke a b c", "err want: [from=host] [overlay=spec] dest [user]"},
	}
	for _, c := range cases {
		if got, _ := askLine(d, c.line); got != c.want {
			t.Errorf("handleLine(%q) = %q, want %q", c.line, got, c.want)
		}
	}

	// HTTP: the same vantage parameter.
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(b))
	}
	if code, body := get(srv.URL + "/route?dest=ucbvax&user=honey&from=duke"); code != 200 || body != "research!ucbvax!honey" {
		t.Errorf("http from=duke: %d %q", code, body)
	}
	if code, _ := get(srv.URL + "/route?dest=ucbvax&from=nosuchhost"); code != 400 {
		t.Errorf("http unknown vantage: status %d, want 400", code)
	}

	// A source edit hot-swaps every resident vantage store: raise
	// unc->duke so duke's own vantage is unaffected but unc's reroutes.
	edited := strings.Replace(testMapSrc, "unc\tduke(HOURLY)", "unc\tduke(WEEKLY*10)", 1)
	if err := os.WriteFile(mapPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.remap(); err != nil {
		t.Fatal(err)
	}
	if got, _ := askLine(d, "duke honey"); got != "ok phs!duke!honey" {
		t.Errorf("default vantage after edit = %q", got)
	}
	if got, _ := askLine(d, "from=duke ucbvax honey"); got != "ok research!ucbvax!honey" {
		t.Errorf("duke vantage after edit = %q", got)
	}

	// Precompiled mode has no vantage engine.
	pd, err := newDaemon(writeRoutes(t, dir, testRoutes), false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := askLine(pd, "from=duke unc honey"); !strings.Contains(got, "require -map mode") {
		t.Errorf("precompiled from= = %q", got)
	}
}

// TestVantageSwapSurvivesDefaultFailure: when an edit removes the
// default (-l) vantage host from the map, the default store keeps its
// previous database but every OTHER resident vantage still picks up the
// edit — per-vantage isolation of mapping failures.
func TestVantageSwapSurvivesDefaultFailure(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	if err := os.WriteFile(mapPath, []byte("a\tb(10)\nb\tc(10)\nc\tb(5)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newMapDaemon(routedb.Options{}, io.Discard)
	w, err := newMapWatcher(d, "a", 8, []string{mapPath}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := askLine(d, "from=b c honey"); got != "ok c!honey" {
		t.Fatalf("initial b vantage = %q", got)
	}

	// The edit drops host a entirely: the default vantage fails, b's
	// reroutes (b->c now only via nothing direct? cost changes).
	if err := os.WriteFile(mapPath, []byte("b\tc(20)\nc\td(5)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.remap(); err == nil {
		t.Fatal("remap with vanished default host should report the default vantage error")
	}
	// Default store: previous database still serving.
	if got, _ := askLine(d, "b honey"); got != "ok b!honey" {
		t.Errorf("default store after failed default re-map = %q", got)
	}
	// b's vantage store: swapped to the new map (d is now reachable).
	if got, _ := askLine(d, "from=b d honey"); got != "ok c!d!honey" {
		t.Errorf("b vantage after edit = %q", got)
	}
}
