package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pathalias/internal/routedb"
)

// writeBinaryRoutes compiles a text route set to an rdb file.
func writeBinaryRoutes(t *testing.T, dir, name, content string) string {
	t.Helper()
	db, err := routedb.Load(strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil { // atomic, as documented
		t.Fatal(err)
	}
	return path
}

// TestBinaryStdinProtocol serves the line protocol from a compiled
// database; answers must match the text-served ones byte for byte.
func TestBinaryStdinProtocol(t *testing.T) {
	path := writeBinaryRoutes(t, t.TempDir(), "routes.rdb", testRoutes)
	in := strings.NewReader("duke honey\ncaip.rutgers.edu pleasant\nnowhere u\nstats\nquit\n")
	var out, errw strings.Builder
	if code := run([]string{"-db", path, "-stdin", "-watch", "0"}, in, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	want := []string{
		"ok duke!honey",
		"ok seismo!caip.rutgers.edu!pleasant",
		`err routedb: no route to "nowhere"`,
		"ok routes=3 swaps=1 lookups=0 resolves=3 hits=1 suffix_hits=1 misses=1",
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
	if !strings.Contains(errw.String(), "mapped 3 routes") {
		t.Errorf("stderr = %q", errw.String())
	}
}

// TestBinaryModeExclusive: -db conflicts with -d and -map.
func TestBinaryModeExclusive(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-d", "a.db", "-db", "b.rdb", "-stdin"}, strings.NewReader(""), &out, &errw); code != 2 {
		t.Errorf("-d with -db: run = %d, want usage error", code)
	}
	if code := run([]string{"-db", "b.rdb", "-map", "-l", "x", "-stdin", "m.map"}, strings.NewReader(""), &out, &errw); code != 2 {
		t.Errorf("-db with -map: run = %d, want usage error", code)
	}
	if code := run([]string{"-db", "nosuch.rdb", "-stdin"}, strings.NewReader(""), &out, &errw); code != 1 {
		t.Errorf("missing rdb: run = %d", code)
	}
}

// TestBinaryRejectsTextFile: pointing -db at a linear text database
// must fail at startup, not serve garbage.
func TestBinaryRejectsTextFile(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	var out, errw strings.Builder
	if code := run([]string{"-db", path, "-stdin"}, strings.NewReader("duke honey\n"), &out, &errw); code != 1 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "rdb") {
		t.Errorf("stderr = %q", errw.String())
	}
}

// TestBinaryWatchHotSwap replaces the compiled file (write-then-rename)
// and expects the daemon to swap the mapping in without dropping the
// old database for in-flight readers.
func TestBinaryWatchHotSwap(t *testing.T) {
	dir := t.TempDir()
	path := writeBinaryRoutes(t, dir, "routes.rdb", testRoutes)
	d, err := newDaemon(path, true, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.audits.Wait)
	if _, err := d.store.Resolve("newhost", "u"); err == nil {
		t.Fatal("newhost resolvable before swap")
	}
	old := d.store.DB()
	goWatch(t, func(ctx context.Context) { d.watch(ctx, 5*time.Millisecond) })

	writeBinaryRoutes(t, dir, "routes.rdb", testRoutes+"700\tnewhost\tduke!newhost!%s\n")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if res, err := d.store.Resolve("newhost", "u"); err == nil {
			if got := res.Address(); got != "duke!newhost!u" {
				t.Fatalf("after swap: %q", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hot swap never happened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The superseded database still answers: in-flight readers holding
	// the old snapshot are unaffected by the swap.
	if res, err := old.Resolve("duke", "honey"); err != nil || res.Address() != "duke!honey" {
		t.Errorf("old snapshot broken after swap: %v, %v", res, err)
	}

	// A cost-only edit changes the entries section alone — same size,
	// same strings, hash and trie — and must still be swapped in.
	writeBinaryRoutes(t, dir, "routes.rdb", testRoutes+"900\tnewhost\tduke!newhost!%s\n")
	deadline = time.Now().Add(5 * time.Second)
	for {
		if e, ok := d.store.Lookup("newhost"); ok && e.Cost == 900 {
			break
		}
		if time.Now().After(deadline) {
			e, _ := d.store.Lookup("newhost")
			t.Fatalf("cost-only replacement never served: newhost cost %d", e.Cost)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBinaryWatchKeepsServingOnCorruption: a truncated replacement is
// rejected and the previous database keeps serving.
func TestBinaryWatchKeepsServingOnCorruption(t *testing.T) {
	dir := t.TempDir()
	path := writeBinaryRoutes(t, dir, "routes.rdb", testRoutes)
	d, err := newDaemon(path, true, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.audits.Wait)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt replacement (valid magic, truncated body), installed by
	// rename like every image replacement: the served mapping must
	// never be truncated under the daemon.
	if err := os.WriteFile(path+".tmp", img[:len(img)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		t.Fatal(err)
	}
	if err := d.reload(); err == nil {
		t.Fatal("reload of corrupt file succeeded")
	}
	if res, err := d.store.Resolve("duke", "honey"); err != nil || res.Address() != "duke!honey" {
		t.Errorf("old database not serving after failed reload: %v, %v", res, err)
	}
}
