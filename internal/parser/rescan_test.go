package parser_test

// Window rescans: a fragment Rescan derives from the previous version
// of an input must equal a full scan of the new version in every
// statement (offsets included), member, warning, error and pending
// item, and the window it reports must bound the only statements the two
// versions' replay logs may differ in.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"pathalias/internal/mapgen"
	"pathalias/internal/parser"
)

// checkRescan rescans in against old (a fragment of an earlier version
// of it) and fails unless the result equals a full scan and the window
// is sound.
func checkRescan(t *testing.T, old *parser.Fragment, in parser.Input) (*parser.Fragment, parser.Window) {
	t.Helper()
	got, w := parser.Rescan(parser.Options{}, old, in)
	want := parser.ScanFragment(parser.Options{}, in)
	if !reflect.DeepEqual(parser.FragmentInternals(got), parser.FragmentInternals(want)) {
		t.Fatalf("rescan differs from a full scan of %q\nrescan: %+v\nfull:   %+v",
			in.Src, parser.FragmentInternals(got), parser.FragmentInternals(want))
	}
	if got.Src() != in.Src {
		t.Fatalf("rescanned fragment keeps another source")
	}
	if w.Bytes > len(in.Src) || w.Whole && w.Bytes != len(in.Src) {
		t.Fatalf("window %+v scanned more than the %d-byte source", w, len(in.Src))
	}
	if old != nil && old.ErrorCount() == 0 && got.ErrorCount() == 0 {
		if w.Lo > w.OldHi || w.Lo > w.NewHi ||
			!reflect.DeepEqual(ops(old, 0, w.Lo), ops(got, 0, w.Lo)) ||
			!reflect.DeepEqual(ops(old, w.OldHi, old.Stmts()), ops(got, w.NewHi, got.Stmts())) {
			t.Fatalf("window %+v: statements outside it differ", w)
		}
		// Common inside the window leaves no more statements to replay
		// than Common over the whole logs.
		whole := parser.Window{OldHi: old.Stmts(), NewHi: got.Stmts(), Whole: true}
		if a, b := middles(old, got, w), middles(old, got, whole); a > b {
			t.Fatalf("window %+v: %d statements to replay, %d over the whole logs", w, a, b)
		}
	}
	return got, w
}

// middles counts the statements a patch from old to f replays: f's
// between their common prefix and suffix, and old's it undoes.
func middles(old, f *parser.Fragment, w parser.Window) int {
	p, s := f.Common(old, w)
	return old.Stmts() + f.Stmts() - 2*(p+s)
}

// ops renders statements [lo, hi) of f.
func ops(f *parser.Fragment, lo, hi int) []string {
	var out []string
	f.OpsRange(lo, hi, func(op *parser.ReplayOp) bool {
		out = append(out, fmt.Sprintf("%+v", *op))
		return true
	})
	return out
}

// rescanBase has one statement of each shape the window edges must
// respect — a trailing-comma continuation, a backslash continuation, a
// multi-line network, a comment that parses if uncommented, bare names a
// continuation can swallow — after a self link's warning and a pending
// item.
const rescanBase = `s	s
dead {g!h}
a	b(10), c(20)
b	c(5)
# x	y(1)
c	d(DAILY), e(HOURLY)
n = {a,
	b, c}(DAILY)
d	e(1),
	f
e	f(3) \
, g(4)
f	g(5)
i
g	h(6)
h	a(7)
`

// TestRescanEdits runs edits that move statement boundaries, or that
// must fall back to a full scan, both ways: each is applied to the base
// (plus tail) and then reverted.
func TestRescanEdits(t *testing.T) {
	const warnTail, pendTail = "t\tt\n", "dead {h!a}\n"
	cases := []struct {
		name     string
		tail     string // appended to the base
		from, to string
		whole    bool // the edit must take the full scan
	}{
		{"cost change", "", "c(5)", "c(50)", false},
		{"trailing comma joins the next line", "", "g(5)\n", "g(5),\n", false},
		{"trailing comma removed splits", "", "e(1),\n", "e(1)\n", false},
		{"backslash-newline splits a line", "", "b(10), c(20)", "b(10), \\\nc(20)", false},
		{"comment opened", "", "g\th(6)", "#g\th(6)", false},
		{"comment closed", "", "# x\ty(1)\n", "x\ty(1)\n", false},
		{"network member added", "", "b, c}", "b, c, x}", false},
		{"network split over one more line", "", "{a,\n", "{a,\n\tz,\n", false},
		{"line added below a warning and a pending item", "", "f\tg(5)\n", "f\tg(5)\nz\ty(1)\n", false},
		{"same-line edit above a warning", warnTail, "a\tb(10)", "a\tb(99)", false},
		{"line removed above a warning", warnTail, "b\tc(5)\n", "", true},
		{"same-line edit above a pending item", pendTail, "c(5)", "c(6)", false},
		{"line added above a pending item", pendTail, "g\th(6)\n", "g\th(6)\nz\ty(1)\n", true},
		{"warning edited", "", "s\ts\n", "s\tt\n", false},
		{"file switch", "", "g\th(6)", "file {other}\ng\th(6)", true},
		{"syntax error", "", "f\tg(5)", "f\tg(5", true},
		{"unterminated cost", "", "c\td(DAILY)", "c\td(DAILY", true},
		{"statement deleted", "", "c\td(DAILY), e(HOURLY)\n", "c\n", false},
		{"prepended above a pending item", "", "s\ts", "p\tq(1)\ns\ts", true},
		{"appended", "", "h\ta(7)\n", "h\ta(7)\nj\tk(8)\n", false},
		{"last newline dropped", "", "h\ta(7)\n", "h\ta(7)", false},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			src := rescanBase + tc.tail
			if !strings.Contains(src, tc.from) {
				t.Fatalf("base has no %q", tc.from)
			}
			base := parser.Input{Name: "m.map", Src: src}
			edited := parser.Input{Name: "m.map", Src: strings.Replace(src, tc.from, tc.to, 1)}
			f0 := parser.ScanFragment(parser.Options{}, base)
			if f0.ErrorCount() > 0 {
				t.Fatalf("base does not parse: %v", f0.ErrorTexts())
			}
			if errs := parser.ScanFragment(parser.Options{}, edited).ErrorTexts(); !tc.whole && len(errs) > 0 {
				t.Fatalf("edited source does not parse: %v", errs)
			}
			f1, w := checkRescan(t, f0, edited)
			if w.Whole != tc.whole {
				t.Errorf("edit: whole scan %v, want %v (window %+v)", w.Whole, tc.whole, w)
			}
			if !w.Whole && w.Bytes >= len(edited.Src)/2 {
				t.Errorf("edit: window of %d bytes for a one-line edit of %d", w.Bytes, len(edited.Src))
			}
			checkRescan(t, f1, base)
		})
	}
}

// TestRescanLeavesNoSupersededSource chains 200 window rescans of one
// file: every name the fragment holds must lie in the current source,
// and nothing may point into an earlier one.
func TestRescanLeavesNoSupersededSource(t *testing.T) {
	ins, _ := mapgen.Generate(mapgen.Small())
	in := ins[1] // the file with networks, aliases and privates
	f := parser.ScanFragment(parser.Options{}, in)
	var old []string
	lines := strings.SplitAfter(in.Src, "\n")
	windows := 0
	for i := 0; i < 200; i++ {
		old = append(old, in.Src)
		// A fresh copy each time, as a watcher re-reading the file has.
		ln := (i * 37) % len(lines)
		lines[ln] = strings.Replace(lines[ln], ")", fmt.Sprintf("+%d)", i%3), 1)
		in.Src = strings.Clone(strings.Join(lines, ""))
		var w parser.Window
		f, w = checkRescan(t, f, in)
		if !w.Whole {
			windows++
		}
	}
	if windows != 200 {
		t.Fatalf("%d of 200 edits took the window path", windows)
	}
	names, other := parser.FragmentStrings(f)
	for _, s := range names {
		if s != "" && !within(s, in.Src) {
			t.Fatalf("name %q lies outside the current source", s)
		}
	}
	for _, s := range append(names, other...) {
		for _, src := range old {
			if s != "" && within(s, src) {
				t.Fatalf("string %q pins a superseded source", s)
			}
		}
	}
}

// within reports whether s's bytes lie inside src's.
func within(s, src string) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	b := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return p >= b && p+uintptr(len(s)) <= b+uintptr(len(src))
}

// rescanPieces are the texts FuzzRescan inserts: the statement-boundary
// movers (continuations, comments, parens, braces) and whole statements
// of every scope-sensitive kind.
var rescanPieces = []string{
	",\n", "\\\n", "\n", "#", "(", ")", "{", "}", " ", ",", "x",
	"private {x}\n", "dead {a!b}\n", "file {f}\n", "delete {b!c}\n",
	"a\tb(10)\n", "x\tx\n", "h\ty(DAILY), z(HOURLY)\n",
	"n = {a, b}(DAILY)\n", "n = @{a,\n b}\n",
}

// FuzzRescan decodes the fuzz bytes into up to four successive edits of
// a generated map file — an offset, a deletion length and inserted
// pieces — and rescans after each: every result must equal a full scan.
func FuzzRescan(f *testing.F) {
	ins, _ := mapgen.Generate(mapgen.Small())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0x30, 0x10, 5, 2, 0, 1})
	f.Add([]byte{0, 0x7f, 0x00, 0, 2, 11, 12})
	f.Add([]byte{1, 0x10, 0x00, 3, 3, 0, 1, 3, 0x40, 0x02, 0, 1, 13})
	f.Add([]byte{0, 0xff, 0xff, 0, 1, 18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		in := ins[int(data[0])%len(ins)]
		frag := parser.ScanFragment(parser.Options{}, in)
		data = data[1:]
		for edit := 0; edit < 4 && len(data) >= 4; edit++ {
			off := (int(data[0])<<8 | int(data[1])) * len(in.Src) >> 16
			del := min(int(data[2])%64, len(in.Src)-off)
			n := min(int(data[3])%8, len(data)-4)
			var ins strings.Builder
			for _, b := range data[4 : 4+n] {
				ins.WriteString(rescanPieces[int(b)%len(rescanPieces)])
			}
			data = data[4+n:]
			in.Src = in.Src[:off] + ins.String() + in.Src[off+del:]
			frag, _ = checkRescan(t, frag, in)
		}
	})
}

// BenchmarkRescan times a one-link cost change in the middle of the
// 50k-host map's largest file: the window rescan against a full scan.
//
//	go test -run '^$' -bench Rescan ./internal/parser/
func BenchmarkRescan(b *testing.B) {
	ins, _ := mapgen.Generate(mapgen.Scaled(50000, 1))
	in := ins[0]
	for _, x := range ins {
		if len(x.Src) > len(in.Src) {
			in = x
		}
	}
	mid := strings.Index(in.Src[len(in.Src)/2:], "(") + len(in.Src)/2
	srcs := [2]string{in.Src, in.Src[:mid] + "(WEEKLY*3+" + in.Src[mid+1:]}
	b.Run("window", func(b *testing.B) {
		f := parser.ScanFragment(parser.Options{}, in)
		for i := 0; i < b.N; i++ {
			f, _ = parser.Rescan(parser.Options{}, f, parser.Input{Name: in.Name, Src: srcs[(i+1)%2]})
		}
	})
	b.Run("whole", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parser.ScanFragment(parser.Options{}, parser.Input{Name: in.Name, Src: srcs[(i+1)%2]})
		}
	})
}
