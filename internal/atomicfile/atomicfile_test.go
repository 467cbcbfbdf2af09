package atomicfile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeString is the trivial happy-path write callback.
func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", path, err)
	}
	return string(b)
}

// listTemps returns leftover temp files in dir (anything but the named
// published files).
func listTemps(t *testing.T, dir string, published ...string) []string {
	t.Helper()
	keep := make(map[string]bool, len(published))
	for _, p := range published {
		keep[filepath.Base(p)] = true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var temps []string
	for _, e := range ents {
		if !keep[e.Name()] {
			temps = append(temps, e.Name())
		}
	}
	return temps
}

func TestPublishCreatesAndReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "routes.db")

	if err := Publish(path, writeString("first\n")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if got := readFile(t, path); got != "first\n" {
		t.Fatalf("content = %q", got)
	}
	if err := Publish(path, writeString("second\n")); err != nil {
		t.Fatalf("second Publish: %v", err)
	}
	if got := readFile(t, path); got != "second\n" {
		t.Fatalf("content after replace = %q", got)
	}
	if temps := listTemps(t, dir, path); len(temps) != 0 {
		t.Errorf("leftover temp files: %v", temps)
	}
}

// TestPublishFailedWriteKeepsOld: a write callback that fails after
// producing partial output must leave the previously published file
// byte-identical and remove its temp file.
func TestPublishFailedWriteKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "routes.db")
	if err := Publish(path, writeString("good old image\n")); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("torn write")
	err := Publish(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Publish error = %v, want %v", err, boom)
	}
	if got := readFile(t, path); got != "good old image\n" {
		t.Fatalf("old file corrupted: %q", got)
	}
	if temps := listTemps(t, dir, path); len(temps) != 0 {
		t.Errorf("failed publish leaked temp files: %v", temps)
	}
}

// shortWriter fails with io.ErrShortWrite after limit bytes — the
// torn-write simulation: a writer that silently accepts only a prefix.
type shortWriter struct {
	w     io.Writer
	limit int
	n     int
}

func (s *shortWriter) Write(p []byte) (int, error) {
	if s.n+len(p) > s.limit {
		k := s.limit - s.n
		if k > 0 {
			s.w.Write(p[:k])
			s.n += k
		}
		return k, io.ErrShortWrite
	}
	n, err := s.w.Write(p)
	s.n += n
	return n, err
}

// TestPublishShortWriteKeepsOld: the short-WriteSeeker torn-write
// scenario. A callback writing through a short writer must surface the
// error (never rename a truncated temp) and the old image survives.
func TestPublishShortWriteKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "routes.rdb")
	if err := Publish(path, writeString("intact previous image")); err != nil {
		t.Fatal(err)
	}

	err := Publish(path, func(w io.Writer) error {
		sw := &shortWriter{w: w, limit: 7}
		_, err := io.WriteString(sw, "this image is much longer than seven bytes")
		return err
	})
	if err == nil {
		t.Fatal("short write published as success")
	}
	if got := readFile(t, path); got != "intact previous image" {
		t.Fatalf("old file corrupted: %q", got)
	}
}

// TestPublishCrashWindowKeepsOld pins the kill-between-write-and-rename
// invariant observably: at every instant while the new content is being
// written — the window where a crash would strand the temp file — the
// final path still holds the complete old content. Only the atomic
// rename at the very end may change it.
func TestPublishCrashWindowKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "routes.db")
	if err := Publish(path, writeString("old\n")); err != nil {
		t.Fatal(err)
	}

	err := Publish(path, func(w io.Writer) error {
		for i := 0; i < 100; i++ {
			if _, err := fmt.Fprintf(w, "new line %d\n", i); err != nil {
				return err
			}
			// Mid-write (the crash window): the published path must be
			// the old content, complete and uncorrupted.
			if got := readFile(t, path); got != "old\n" {
				return fmt.Errorf("final path changed mid-write: %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if got := readFile(t, path); !strings.HasPrefix(got, "new line 0\n") {
		t.Fatalf("new content not published: %q", got)
	}

	// A stranded temp file from a "crashed" earlier publish must not
	// break the next one.
	stray := filepath.Join(dir, fmt.Sprintf(".%s.tmp.%d.0", "routes.db", os.Getpid()))
	if err := os.WriteFile(stray, []byte("crashed publisher leftovers"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := Publish(path, writeString("after crash\n")); err != nil {
		t.Fatalf("Publish with stray temp present: %v", err)
	}
	if got := readFile(t, path); got != "after crash\n" {
		t.Fatalf("content = %q", got)
	}
	if got := readFile(t, stray); got != "crashed publisher leftovers" {
		t.Fatalf("stray temp clobbered: %q", got)
	}
}

func TestPublishMissingDir(t *testing.T) {
	err := Publish(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), writeString("x"))
	if err == nil {
		t.Fatal("publish into a missing directory succeeded")
	}
}

// TestPublisherGenerations: a Publisher adopts a file that already
// holds its first generation's bytes, builds and writes nothing for a
// generation the file holds, writes a new one, and after a failure
// keeps the previous file and retries.
func TestPublisherGenerations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "routes.rdb")
	if err := Publish(path, writeString("one")); err != nil {
		t.Fatal(err)
	}
	p := &Publisher{Path: path}
	built := 0
	bytesOf := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { built++; return writeString(s)(w) }
	}
	step := func(gen uint64, data func(io.Writer) error, wantWrote bool, wantErr error, wantBuilt int, want string) {
		t.Helper()
		before, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		wrote, err := p.Publish(gen, data)
		if wrote != wantWrote || !errors.Is(err, wantErr) || built != wantBuilt {
			t.Fatalf("Publish(%d) = %v, %v with %d builds; want %v, %v with %d", gen, wrote, err, built, wantWrote, wantErr, wantBuilt)
		}
		after, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if os.SameFile(before, after) == wrote {
			t.Errorf("Publish(%d): wrote=%v but the file's inode says otherwise", gen, wrote)
		}
		if got := readFile(t, path); got != want {
			t.Errorf("after Publish(%d) the file holds %q, want %q", gen, got, want)
		}
	}
	step(1, bytesOf("one"), false, nil, 1, "one") // adopted
	step(1, bytesOf("one"), false, nil, 1, "one") // held: not even built
	step(2, bytesOf("two"), true, nil, 2, "two")
	boom := errors.New("compile failed")
	step(3, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	}, false, boom, 2, "two")
	step(3, bytesOf("three"), true, nil, 3, "three")
	step(3, bytesOf("three"), false, nil, 3, "three")
}
