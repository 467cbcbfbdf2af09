package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"pathalias"
	"pathalias/internal/core"
)

const watchMapSrc = "unc\tduke(HOURLY), phs(HOURLY*4)\nduke\tunc(DEMAND), research(DAILY/2)\nphs\tunc(HOURLY*4), duke(HOURLY)\nresearch\tduke(DEMAND)\n"

func TestWatcherRegeneratesOnChange(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "w.map")
	outPath := filepath.Join(dir, "routes.out")
	if err := os.WriteFile(mapPath, []byte(watchMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := newWatcher(core.Config{LocalHost: "unc"}, []string{mapPath}, watchConfig{outPath: outPath}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer // read only after the loop has been joined
	w.log = slog.New(slog.NewTextHandler(&logBuf, nil))
	if wrote, err := w.regenerate(); err != nil || !wrote {
		t.Fatalf("initial regenerate: wrote=%v err=%v", wrote, err)
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "research\tduke!research!%s\n") {
		t.Fatalf("initial output missing route:\n%s", out)
	}

	// Edit the map: the watcher loop must rewrite the output.
	edited := strings.Replace(watchMapSrc, "duke(HOURLY)", "duke(WEEKLY*20)", 1)
	if err := os.WriteFile(mapPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); w.loop(ctx, 5*time.Millisecond) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		out, _ := os.ReadFile(outPath)
		if strings.Contains(string(out), "duke\tphs!duke!%s\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch loop never rewrote output; have:\n%s", out)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A broken edit must keep the last good output in place.
	if err := os.WriteFile(mapPath, []byte("unc\tduke(((\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	out, err = os.ReadFile(outPath)
	if err != nil || !strings.Contains(string(out), "duke\tphs!duke!%s\n") {
		t.Errorf("broken edit clobbered output (err %v):\n%s", err, out)
	}

	// Join the loop before reading the engine's stats, so they cover
	// every regeneration.
	cancel()
	<-done
	if got := w.eng.Stats(); got.Incremental == 0 {
		t.Errorf("expected at least one incremental regeneration, stats %+v", got)
	}
	// The cost edit replayed one link declaration: applied once, undone once.
	if !strings.Contains(logBuf.String(), "msg=regenerated") || !strings.Contains(logBuf.String(), "stmts_replayed=2") {
		t.Errorf("regeneration log lacks stmts_replayed=2:\n%s", logBuf.String())
	}
	// ... after re-scanning only the edited statement's stretch of the file.
	n := 0
	if m := regexp.MustCompile(`stmts_replayed=2 bytes_rescanned=(\d+)`).FindStringSubmatch(logBuf.String()); m != nil {
		n, _ = strconv.Atoi(m[1])
	}
	if n == 0 || n > 64 {
		t.Errorf("regeneration log lacks a small bytes_rescanned for a one-link edit of a %d-byte map:\n%s",
			len(edited), logBuf.String())
	}
	// ... and after rebuilding only the edited link's snapshot row.
	rows := 0
	if m := regexp.MustCompile(`stmts_replayed=2 bytes_rescanned=\d+ rows_rebuilt=(\d+)`).FindStringSubmatch(logBuf.String()); m != nil {
		rows, _ = strconv.Atoi(m[1])
	}
	if rows == 0 || rows > 4 {
		t.Errorf("regeneration log lacks a small rows_rebuilt for a one-link edit:\n%s", logBuf.String())
	}
}

// inPlaceMap renders an n-host map rooted at unc (a binary tree of
// links plus one cross link per host); variant v shifts every cost, and
// odd variants declare only the first three quarters of the hosts, so
// consecutive variants alternate between longer and shorter files.
func inPlaceMap(n, v int) string {
	decl := n
	if v%2 == 1 {
		decl = n * 3 / 4
	}
	var b strings.Builder
	fmt.Fprintf(&b, "unc\th0(%d)\n", 10+v%7)
	for i := 0; i < decl; i++ {
		fmt.Fprintf(&b, "h%d\th%d(%d), h%d(%d), h%d(%d)\n", i,
			2*i+1, 10+(i+v)%50, 2*i+2, 10+(i*3+v)%50, (i*7+3)%n, 200+(i*v)%90)
	}
	return b.String()
}

// TestWatcherSurvivesInPlaceRewrites: fifty in-place saves (truncate,
// then write) alternating shorter and longer content while the watch
// loop re-reads the source through MultiEngine.UpdateFiles. The process must
// never fault, and the output must end up byte-identical to a batch run
// over the final content.
func TestWatcherSurvivesInPlaceRewrites(t *testing.T) {
	const hosts = 4000
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "live.map")
	outPath := filepath.Join(dir, "routes.out")
	if err := os.WriteFile(mapPath, []byte(inPlaceMap(hosts, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := newWatcher(core.Config{LocalHost: "unc"}, []string{mapPath}, watchConfig{outPath: outPath}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.regenerate(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.loop(ctx, time.Millisecond) }()
	defer func() { cancel(); <-done }()

	var final string
	for v := 1; v <= 50; v++ {
		final = inPlaceMap(hosts, v)
		if err := os.WriteFile(mapPath, []byte(final), 0o644); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(v%4) * time.Millisecond)
	}

	res, err := pathalias.RunString(pathalias.Options{LocalHost: "unc"}, final)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteRoutes(&want); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := os.ReadFile(outPath)
		if bytes.Equal(got, want.Bytes()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("output never converged on the final content (%d vs %d bytes)", len(got), want.Len())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunWatchUsage(t *testing.T) {
	var errw strings.Builder
	if code := run([]string{"-watch", "1s", "-l", "unc", "x.map"}, io.Discard, &errw); code != 2 {
		t.Errorf("-watch without -o: run = %d (%s)", code, errw.String())
	}
	errw.Reset()
	if code := run([]string{"-watch", "1s", "-l", "unc", "-o", "out"}, io.Discard, &errw); code != 2 {
		t.Errorf("-watch without files: run = %d (%s)", code, errw.String())
	}
}

// TestWatcherPartialBatchNotSkipped pins the semantics of regenerate's
// identical-inputs skip (`Unchanged > before && Updates > 0`): the
// engine counts an update as Unchanged only when the WHOLE input set is
// byte-identical, so a batch where one file is untouched but another
// changed must regenerate — the untouched file cannot mask the change.
func TestWatcherPartialBatchNotSkipped(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.map")
	b := filepath.Join(dir, "b.map")
	outPath := filepath.Join(dir, "routes.out")
	if err := os.WriteFile(a, []byte("unc\tduke(HOURLY)\nduke\tunc(DEMAND)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("duke\tresearch(DAILY)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := newWatcher(core.Config{LocalHost: "unc"}, []string{a, b}, watchConfig{outPath: outPath}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if wrote, err := w.regenerate(); err != nil || !wrote {
		t.Fatalf("initial regenerate: wrote=%v err=%v", wrote, err)
	}

	// Re-touch with identical bytes: a true no-op, skipped.
	if err := os.WriteFile(b, []byte("duke\tresearch(DAILY)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if wrote, err := w.regenerate(); err != nil || wrote {
		t.Fatalf("identical re-touch: wrote=%v err=%v, want skip", wrote, err)
	}

	// Change only b, leave a untouched: the batch must NOT be skipped.
	if err := os.WriteFile(b, []byte("duke\tresearch(DEMAND), zot(DAILY)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if wrote, err := w.regenerate(); err != nil || !wrote {
		t.Fatalf("partial-batch change: wrote=%v err=%v, want regenerate", wrote, err)
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "zot\t") {
		t.Fatalf("new host from the changed file missing:\n%s", out)
	}
}

// TestWatcherPublishesDB: with -o-db, a route-changing edit republishes
// the compiled database, and an edit that cannot change routes (a
// comment) writes neither the image nor the text output.
func TestWatcherPublishesDB(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "w.map")
	outPath := filepath.Join(dir, "routes.out")
	dbPath := filepath.Join(dir, "routes.rdb")
	if err := os.WriteFile(mapPath, []byte(watchMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := newWatcher(core.Config{LocalHost: "unc"}, []string{mapPath}, watchConfig{outPath: outPath, outDB: dbPath}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if wrote, err := w.regenerate(); err != nil || !wrote {
		t.Fatalf("initial regenerate: wrote=%v err=%v", wrote, err)
	}
	db1, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatalf("no database published: %v", err)
	}
	stats1 := statAll(t, outPath, dbPath)

	// A comment-only edit: routes cannot change, so neither file is
	// written (same inodes).
	if err := os.WriteFile(mapPath, []byte("# tweak\n"+watchMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if wrote, err := w.regenerate(); err != nil || wrote {
		t.Fatalf("comment edit: wrote=%v err=%v, want nothing written", wrote, err)
	}
	for i, st := range statAll(t, outPath, dbPath) {
		if !os.SameFile(stats1[i], st) {
			t.Errorf("comment-only edit rewrote %s", st.Name())
		}
	}

	// A route-changing edit publishes a new image.
	edited := strings.Replace(watchMapSrc, "duke(HOURLY)", "duke(WEEKLY*20)", 1)
	if err := os.WriteFile(mapPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if wrote, err := w.regenerate(); err != nil || !wrote {
		t.Fatalf("route edit: wrote=%v err=%v", wrote, err)
	}
	db2, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(db1) == string(db2) {
		t.Error("route-changing edit did not publish a new image")
	}
}

// statAll stats each path.
func statAll(t *testing.T, paths ...string) []os.FileInfo {
	t.Helper()
	var out []os.FileInfo
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}

// TestWatcherRestartWritesNothing: a second watcher started over
// unchanged sources adopts both outputs as they are on disk: it writes
// neither the text route file nor the compiled database.
func TestWatcherRestartWritesNothing(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "w.map")
	outPath := filepath.Join(dir, "routes.out")
	dbPath := filepath.Join(dir, "routes.rdb")
	if err := os.WriteFile(mapPath, []byte(watchMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	start := func() (bool, error) {
		w, err := newWatcher(core.Config{LocalHost: "unc"}, []string{mapPath}, watchConfig{outPath: outPath, outDB: dbPath, costs: true}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return w.regenerate()
	}
	if wrote, err := start(); err != nil || !wrote {
		t.Fatalf("first watcher: wrote=%v err=%v", wrote, err)
	}
	before := statAll(t, outPath, dbPath)
	if wrote, err := start(); err != nil || wrote {
		t.Fatalf("restarted watcher: wrote=%v err=%v, want nothing written", wrote, err)
	}
	for i, st := range statAll(t, outPath, dbPath) {
		if !os.SameFile(before[i], st) {
			t.Errorf("the restarted watcher rewrote %s", st.Name())
		}
	}
}
