package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathalias"
	"pathalias/internal/rdb"
	"pathalias/internal/routedb"
)

// paperRoutes computes the paper's 1981 map routes from local as the
// linear text file (with costs) — the input `pathalias | mkdb` would
// see.
func paperRoutes(t *testing.T, local string) string {
	t.Helper()
	res, err := pathalias.RunFiles(pathalias.Options{
		LocalHost:  local,
		PrintCosts: true,
	}, filepath.Join("..", "..", "testdata", "paper1981.map"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteRoutes(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestBinaryRoundTrip is the mkdb round-trip contract over the paper
// map: text → `mkdb -binary` → OpenBinary must answer every host
// byte-identically to the text-built routedb.Store.
func TestBinaryRoundTrip(t *testing.T) {
	for _, local := range []string{"unc", "duke"} {
		text := paperRoutes(t, local)
		dir := t.TempDir()
		txtPath := filepath.Join(dir, "routes.txt")
		rdbPath := filepath.Join(dir, "routes.rdb")
		if err := os.WriteFile(txtPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}

		var out, errb strings.Builder
		if code := run([]string{"-binary", "-o", rdbPath, txtPath}, nil, &out, &errb); code != 0 {
			t.Fatalf("mkdb -binary exit %d: %s", code, errb.String())
		}

		want := routedb.NewStore(nil)
		db, err := routedb.Load(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		want.Swap(db)

		got, err := routedb.OpenBinary(rdbPath)
		if err != nil {
			t.Fatalf("OpenBinary: %v", err)
		}
		defer got.Close()

		if got.Len() != want.Len() {
			t.Fatalf("local=%s: %d routes, want %d", local, got.Len(), want.Len())
		}
		for _, e := range want.DB().Entries() {
			ge, ok := got.Lookup(e.Host)
			we, _ := want.Lookup(e.Host)
			if !ok || ge != we {
				t.Errorf("local=%s: Lookup(%q) = %+v,%v want %+v", local, e.Host, ge, ok, we)
			}
			gr, gerr := got.Resolve(e.Host, "honey")
			wr, werr := want.Resolve(e.Host, "honey")
			if (gerr == nil) != (werr == nil) || gr != wr {
				t.Errorf("local=%s: Resolve(%q) = %+v,%v want %+v,%v", local, e.Host, gr, gerr, wr, werr)
			}
		}

		// And back: mkdb must decompile the binary file to the same
		// normalized text it would emit for the text input.
		var textOut, textOut2, errb2 strings.Builder
		if code := run([]string{txtPath}, nil, &textOut, &errb2); code != 0 {
			t.Fatalf("mkdb text exit %d: %s", code, errb2.String())
		}
		if code := run([]string{rdbPath}, nil, &textOut2, &errb2); code != 0 {
			t.Fatalf("mkdb rdb-input exit %d: %s", code, errb2.String())
		}
		if textOut.String() != textOut2.String() {
			t.Errorf("local=%s: decompiled text differs from normalized text", local)
		}
	}
}

// TestBinaryStdout writes the compiled database to stdout.
func TestBinaryStdout(t *testing.T) {
	in := strings.NewReader("500\tduke\tduke!%s\n")
	var out bytes.Buffer
	var errb strings.Builder
	if code := run([]string{"-binary"}, in, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !rdb.IsMagic(out.Bytes()) {
		t.Fatalf("stdout is not a compiled database (%d bytes)", out.Len())
	}
	db, err := routedb.OpenBinaryBytes(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := db.Lookup("duke"); !ok || e.Route != "duke!%s" {
		t.Errorf("Lookup(duke) = %+v,%v", e, ok)
	}
	if !strings.Contains(errb.String(), "1 routes (binary)") {
		t.Errorf("stderr = %q", errb.String())
	}
}

// errWriter fails after n bytes — the "disk filled mid-write" shape.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("device full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteOutPropagatesErrors: writeOut must surface write errors in
// both formats (the bug fixed here: the happy path used to drop them
// on the -o file path).
func TestWriteOutPropagatesErrors(t *testing.T) {
	db, err := routedb.Load(strings.NewReader("500\tduke\tduke!%s\n0\tunc\t%s\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, binary := range []bool{false, true} {
		if err := writeOut(db, &errWriter{n: 4}, binary); err == nil {
			t.Errorf("binary=%v: write error swallowed", binary)
		}
	}
}

// TestOutputWriteError drives the full command with its output on
// /dev/full: writes fail with ENOSPC at flush, and mkdb must exit
// nonzero with the error on stderr instead of reporting success.
func TestOutputWriteError(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("/dev/full not available")
	}
	defer full.Close()
	in := strings.NewReader("500\tduke\tduke!%s\n")
	var errb strings.Builder
	if code := run(nil, in, full, &errb); code != 1 {
		t.Fatalf("exit %d want 1 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "mkdb:") {
		t.Errorf("stderr = %q", errb.String())
	}
	if strings.Contains(errb.String(), "routes (") {
		t.Errorf("success line printed despite write failure: %q", errb.String())
	}
}

// TestOutputFileAtomic: a failing -o target (unwritable temp file)
// exits nonzero, leaves the previous database untouched, and cleans up
// after itself.
func TestOutputFileAtomic(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "routes.db")
	if err := os.WriteFile(target, []byte("0\told\told!%s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil { // temp file creation fails
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if os.Getuid() == 0 {
		t.Skip("running as root; read-only directory is not enforced")
	}
	in := strings.NewReader("500\tduke\tduke!%s\n")
	var out, errb strings.Builder
	if code := run([]string{"-o", target}, in, &out, &errb); code != 1 {
		t.Fatalf("exit %d want 1 (stderr %q)", code, errb.String())
	}
	data, err := os.ReadFile(target)
	if err != nil || string(data) != "0\told\told!%s\n" {
		t.Errorf("previous database not preserved: %q, %v", data, err)
	}
}
