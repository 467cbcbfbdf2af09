package fswatch

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// supported reports whether this build has the event backend compiled
// in (linux without the nofsevents tag).
func supported() bool {
	_, err := New([]string{filepath.Join(os.TempDir(), "fswatch-probe")})
	return err == nil
}

func newWatcher(t *testing.T, paths []string) *Watcher {
	t.Helper()
	w, err := New(paths)
	if err != nil {
		t.Fatalf("New(%v): %v", paths, err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func expectKick(t *testing.T, w *Watcher, what string) {
	t.Helper()
	select {
	case <-w.Kicks():
	case <-time.After(5 * time.Second):
		t.Fatalf("no kick within 5s after %s", what)
	}
}

func expectQuiet(t *testing.T, w *Watcher, what string) {
	t.Helper()
	select {
	case <-w.Kicks():
		t.Fatalf("unexpected kick after %s", what)
	case <-time.After(300 * time.Millisecond):
	}
}

func TestUnsupportedBuildReturnsError(t *testing.T) {
	if supported() {
		t.Skip("event backend compiled in")
	}
	if _, err := New([]string{"x"}); err != ErrUnsupported {
		t.Fatalf("New = %v, want ErrUnsupported", err)
	}
}

func TestKickOnWrite(t *testing.T) {
	if !supported() {
		t.Skip("no event backend in this build (poll fallback)")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "map")
	if err := os.WriteFile(path, []byte("a b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := newWatcher(t, []string{path})
	if err := os.WriteFile(path, []byte("a b\nc d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	expectKick(t, w, "write")
}

func TestKickOnRenameReplace(t *testing.T) {
	if !supported() {
		t.Skip("no event backend in this build (poll fallback)")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "map")
	if err := os.WriteFile(path, []byte("a b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := newWatcher(t, []string{path})
	// The atomic-write idiom: write a temp file, rename over the target.
	tmp := filepath.Join(dir, ".map.tmp")
	if err := os.WriteFile(tmp, []byte("a b\nc d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Drain any kick from creating the temp file (nameless/unknown
	// events may kick conservatively) before the rename.
	select {
	case <-w.Kicks():
	case <-time.After(100 * time.Millisecond):
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	expectKick(t, w, "rename-replace")
}

func TestKickOnDelete(t *testing.T) {
	if !supported() {
		t.Skip("no event backend in this build (poll fallback)")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "map")
	if err := os.WriteFile(path, []byte("a b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := newWatcher(t, []string{path})
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	expectKick(t, w, "delete")
}

func TestIrrelevantSiblingIsQuiet(t *testing.T) {
	if !supported() {
		t.Skip("no event backend in this build (poll fallback)")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "map")
	if err := os.WriteFile(path, []byte("a b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := newWatcher(t, []string{path})
	if err := os.WriteFile(filepath.Join(dir, "other"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	expectQuiet(t, w, "unrelated sibling write")
}

func TestMultiplePathsShareOneDirWatch(t *testing.T) {
	if !supported() {
		t.Skip("no event backend in this build (poll fallback)")
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, []byte("x y\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w := newWatcher(t, []string{a, b})
	if err := os.WriteFile(b, []byte("x y\nz w\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	expectKick(t, w, "write to second path")
}

func TestCloseStopsReader(t *testing.T) {
	if !supported() {
		t.Skip("no event backend in this build (poll fallback)")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "map")
	if err := os.WriteFile(path, []byte("a b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ws := make([]*Watcher, 8)
	for i := range ws {
		w, err := New([]string{path})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	for _, w := range ws {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Readers exit on os.ErrClosed; give the scheduler a moment.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("reader goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestMissingDirFails(t *testing.T) {
	if !supported() {
		t.Skip("no event backend in this build (poll fallback)")
	}
	if _, err := New([]string{filepath.Join(t.TempDir(), "no-such-dir", "map")}); err == nil {
		t.Fatal("New over a missing directory should fail")
	}
}

// startWatch runs Watch over paths for the rest of the test and returns
// a channel that receives one value per fn call, with Watch's initial
// call already consumed.
func startWatch(t *testing.T, paths []string, interval time.Duration) <-chan struct{} {
	t.Helper()
	calls := make(chan struct{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Watch(ctx, paths, interval, func() error {
			select {
			case calls <- struct{}{}:
			default: // a call is already pending; tests ask "at least one?"
			}
			return nil
		}, func(err error) { t.Errorf("report(%v) after a successful fn", err) })
	}()
	t.Cleanup(func() { cancel(); <-done })
	expectCall(t, calls, "start")
	return calls
}

func expectCall(t *testing.T, calls <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-calls:
	case <-time.After(5 * time.Second):
		t.Fatalf("fn not called within 5s after %s", what)
	}
}

// drain discards the calls already delivered.
func drain(calls <-chan struct{}) {
	for {
		select {
		case <-calls:
		default:
			return
		}
	}
}

// writeAged writes content to path and backdates its mtime by age.
func writeAged(t *testing.T, path, content string, age time.Duration) time.Time {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	mt := time.Now().Add(-age)
	if err := os.Chtimes(path, mt, mt); err != nil {
		t.Fatal(err)
	}
	return mt
}

// TestWatchSettleWindowRewrite: a rewrite that keeps both mtime and
// size — what a same-second save looks like on a coarse-granularity
// filesystem — still calls fn while the mtime is inside the settle
// window.
func TestWatchSettleWindowRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map")
	mt := writeAged(t, path, "a b\n", 0)
	calls := startWatch(t, []string{path}, 20*time.Millisecond)
	drain(calls)
	if err := os.WriteFile(path, []byte("c d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mt, mt); err != nil {
		t.Fatal(err)
	}
	expectCall(t, calls, "same-mtime same-size rewrite")
}

// TestWatchQuietOutsideSettle: an untouched file whose mtime is older
// than the settle window never calls fn after the initial call — no
// re-read churn on a quiet map.
func TestWatchQuietOutsideSettle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map")
	writeAged(t, path, "a b\n", time.Minute)
	calls := startWatch(t, []string{path}, 10*time.Millisecond)
	select {
	case <-calls:
		t.Fatal("fn called for an unchanged, settled file")
	case <-time.After(300 * time.Millisecond):
	}
}

// TestWatchStatChange: a size change is seen even when the mtime is old.
func TestWatchStatChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map")
	writeAged(t, path, "a b\n", time.Minute)
	calls := startWatch(t, []string{path}, 10*time.Millisecond)
	writeAged(t, path, "a b\nc d\n", time.Minute)
	expectCall(t, calls, "size change")
}

// TestWatchVanishedFile: a removed file calls fn, so the caller can
// report it.
func TestWatchVanishedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map")
	writeAged(t, path, "a b\n", time.Minute)
	calls := startWatch(t, []string{path}, 10*time.Millisecond)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	expectCall(t, calls, "remove")
}

// TestWatchRenameReplaceBeatsPoll: with file events, a rename-replace
// calls fn long before the (hour-long) poll interval would.
func TestWatchRenameReplaceBeatsPoll(t *testing.T) {
	if !supported() {
		t.Skip("no event backend in this build (poll fallback)")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "map")
	writeAged(t, path, "a b\n", time.Minute)
	calls := startWatch(t, []string{path}, time.Hour)
	tmp := filepath.Join(dir, ".map.tmp")
	if err := os.WriteFile(tmp, []byte("a b\nc d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	expectCall(t, calls, "rename-replace")
}

// TestWatchReportsEachFailureOnce drives Watch's failure policy with a
// scripted fn over a missing path, which every wake-up retries: a
// repeated error is reported once, again after a success, and a
// different error at once.
func TestWatchReportsEachFailureOnce(t *testing.T) {
	a, b := errors.New("a: broken"), errors.New("b: missing")
	script := []error{a, a, a, nil, a, a, b, b, a, nil, nil}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reported []error
	calls := 0
	missing := filepath.Join(t.TempDir(), "map")
	Watch(ctx, []string{missing}, time.Millisecond, func() error {
		if calls == len(script) {
			cancel()
			return nil
		}
		calls++
		return script[calls-1]
	}, func(err error) { reported = append(reported, err) })
	if want := []error{a, a, b, a}; !reflect.DeepEqual(reported, want) {
		t.Errorf("reported %v, want %v", reported, want)
	}
}
