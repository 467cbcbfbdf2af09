package routedb

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const binTestRoutes = `0	unc	%s
500	duke	duke!%s
800	research	duke!research!%s
900	.edu	seismo!%s
950	.rutgers.edu	seismo!ru!%s
1100	ucbvax	duke!research!ucbvax!%s
`

// buildBoth loads the text routes and compiles the same database to a
// binary file, returning both.
func buildBoth(t *testing.T, routes string, opts Options) (text, bin *DB) {
	t.Helper()
	text, err := LoadWith(strings.NewReader(routes), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "routes.rdb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := text.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	bin, err = OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bin.Close() })
	return text, bin
}

// TestBinaryEquivalence: every lookup and resolution against the
// binary database must be byte-identical to the text-built one.
func TestBinaryEquivalence(t *testing.T) {
	for _, fold := range []bool{false, true} {
		text, bin := buildBoth(t, binTestRoutes, Options{FoldCase: fold})
		if bin.Options() != (Options{FoldCase: fold}) {
			t.Fatalf("fold=%v: binary options = %+v (flags not round-tripped)", fold, bin.Options())
		}
		if bin.Len() != text.Len() {
			t.Fatalf("fold=%v: Len %d != %d", fold, bin.Len(), text.Len())
		}
		for _, e := range text.Entries() {
			ge, ok := bin.Lookup(e.Host)
			if !ok || ge != e {
				t.Errorf("fold=%v: Lookup(%q) = %+v,%v want %+v", fold, e.Host, ge, ok, e)
			}
		}
		for _, dest := range []string{"unc", "DUKE", "caip.rutgers.edu", "x.edu", "nosuch", "a.b.c.edu"} {
			wr, werr := text.Resolve(dest, "honey")
			gr, gerr := bin.Resolve(dest, "honey")
			if (werr == nil) != (gerr == nil) || wr != gr {
				t.Errorf("fold=%v: Resolve(%q) = %+v,%v want %+v,%v", fold, dest, gr, gerr, wr, werr)
			}
		}
		// WriteTo (ordered iteration through the materialized entries)
		// must emit the identical linear file.
		var wantOut, gotOut bytes.Buffer
		if _, err := text.WriteTo(&wantOut); err != nil {
			t.Fatal(err)
		}
		if _, err := bin.WriteTo(&gotOut); err != nil {
			t.Fatal(err)
		}
		if wantOut.String() != gotOut.String() {
			t.Errorf("fold=%v: WriteTo differs:\n%s\n--- vs ---\n%s", fold, gotOut.String(), wantOut.String())
		}
	}
}

// TestBinaryDeterministic: compiling the same database twice yields the
// same bytes.
func TestBinaryDeterministic(t *testing.T) {
	db, err := Load(strings.NewReader(binTestRoutes))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := db.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := db.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two compilations differ")
	}
}

// TestBinarySniffing: IsBinaryFile and IsBinaryData tell the formats
// apart, including the edge cases (empty and tiny files).
func TestBinarySniffing(t *testing.T) {
	dir := t.TempDir()
	db, err := Load(strings.NewReader(binTestRoutes))
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := db.WriteBinary(&img); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		path string
		want bool
	}{
		{write("bin.rdb", img.Bytes()), true},
		{write("text.db", []byte(binTestRoutes)), false},
		{write("empty", nil), false},
		{write("tiny", []byte{0x89}), false},
	}
	for _, c := range cases {
		got, err := IsBinaryFile(c.path)
		if err != nil {
			t.Errorf("IsBinaryFile(%s): %v", c.path, err)
		}
		if got != c.want {
			t.Errorf("IsBinaryFile(%s) = %v want %v", c.path, got, c.want)
		}
	}
	if _, err := IsBinaryFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("IsBinaryFile on missing file: no error")
	}
	if !IsBinaryData(img.Bytes()) || IsBinaryData([]byte(binTestRoutes)) {
		t.Error("IsBinaryData misclassified")
	}
}

// TestOpenEitherFormat: Open tells the formats apart by their first
// bytes, lets an image's header options win over the caller's, and
// reports a damaged image as an image, never as a text-parse error.
func TestOpenEitherFormat(t *testing.T) {
	dir := t.TempDir()
	image := func(fold bool) []byte {
		db, err := LoadWith(strings.NewReader(binTestRoutes), Options{FoldCase: fold})
		if err != nil {
			t.Fatal(err)
		}
		img, err := db.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	img := image(false)
	for _, tc := range []struct {
		name    string
		data    []byte // nil: no file at all
		opts    Options
		routes  int    // want this many routes, or
		errWant string // an error containing this
		image   bool
		fold    bool
	}{
		{name: "text", data: []byte(binTestRoutes), opts: Options{FoldCase: true}, routes: 6, fold: true},
		{name: "image", data: img, routes: 6, image: true},
		{name: "image compiled under -i", data: image(true), routes: 6, image: true, fold: true},
		{name: "truncated image", data: img[:len(img)/2], errWant: "rdb: " + filepath.Join(dir, "truncated-image")},
		{name: "missing", errWant: "no such file"},
		{name: "shorter than the magic", data: []byte("x\t%s"), routes: 1},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-"))
		if tc.data != nil {
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		db, err := Open(path, tc.opts)
		if tc.errWant != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errWant) || strings.Contains(err.Error(), "line ") {
				t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.errWant)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		_, isImage := db.Binary()
		if db.Len() != tc.routes || isImage != tc.image || db.Options().FoldCase != tc.fold {
			t.Errorf("%s: %d routes, image %v, fold %v; want %d, %v, %v",
				tc.name, db.Len(), isImage, db.Options().FoldCase, tc.routes, tc.image, tc.fold)
		}
		db.Close()
	}
}

// TestBinaryInStore: a Store hot-swaps binary databases like any other,
// and Binary() exposes the checksum fingerprint.
func TestBinaryInStore(t *testing.T) {
	text, bin := buildBoth(t, binTestRoutes, Options{})
	if _, ok := text.Binary(); ok {
		t.Error("text DB claims to be binary")
	}
	crc, ok := bin.Binary()
	if !ok || crc == 0 {
		t.Errorf("Binary() = %08x,%v", crc, ok)
	}
	s := NewStore(text)
	old := s.Swap(bin)
	if old != text {
		t.Error("swap returned wrong DB")
	}
	if r, err := s.Resolve("caip.rutgers.edu", "pleasant"); err != nil || r.Address() != "seismo!ru!caip.rutgers.edu!pleasant" {
		t.Errorf("store resolve after binary swap: %+v, %v", r, err)
	}
}

// TestOpenBinaryRejectsText: pointing OpenBinary at a linear text file
// fails with a useful error instead of garbage, and so does a compiled
// image with one bit flipped.
func TestOpenBinaryRejectsText(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "routes.db")
	if err := os.WriteFile(p, []byte(binTestRoutes), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBinary(p); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("OpenBinary(text) = %v", err)
	}

	_, bin := buildBoth(t, binTestRoutes, Options{})
	img, err := bin.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 1
	bad := filepath.Join(dir, "bad.rdb")
	if err := os.WriteFile(bad, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBinary(bad); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("OpenBinary(bit-flipped image) = %v", err)
	}
}

// TestAppendResolveBothFormats: DB.AppendResolve and Store.AppendResolve
// answer byte-identically to Resolve over both the text-built and the
// mmap-served binary database.
func TestAppendResolveBothFormats(t *testing.T) {
	text, bin := buildBoth(t, binTestRoutes, Options{})
	queries := []string{
		"unc", "duke", "ucbvax", "caip.rutgers.edu", "x.edu",
		"deep.sub.rutgers.edu", "nowhere", "duke.", "",
	}
	var s Scratch
	for _, db := range []*DB{text, bin} {
		store := NewStore(db)
		for _, q := range queries {
			res, err := db.Resolve(q, "honey")
			out, ok := db.AppendResolve(nil, []byte(q), []byte("honey"), &s)
			if ok != (err == nil) {
				t.Errorf("AppendResolve(%q) ok=%v, want err=%v", q, ok, err)
				continue
			}
			if ok && string(out) != res.Address() {
				t.Errorf("AppendResolve(%q) = %q, want %q", q, out, res.Address())
			}
			sout, sok := store.AppendResolve(nil, []byte(q), []byte("honey"), &s)
			if sok != ok || string(sout) != string(out) {
				t.Errorf("Store.AppendResolve(%q) = %q,%v want %q,%v", q, sout, sok, out, ok)
			}
		}
	}
}
