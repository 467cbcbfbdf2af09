package parser

// Split-parse equivalence: scanning one file in statement-boundary
// chunks must produce a fragment identical — statements, members,
// diagnostics, pending items, and every budget counter — to a serial
// scan, for any chunk count. The tricky inputs are continuations that a
// naive newline split would cut mid-statement: backslash-continued
// lines, trailing commas (including trailing commas followed by comment
// or blank lines), comments, and cost expressions containing commas,
// '#', or nested parens.

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pathalias/internal/lexer"
)

// checkSplitParity asserts scanFileChunks == scanFile for several chunk
// counts, returning the serial fragment for further inspection.
func checkSplitParity(t *testing.T, src string) *fragment {
	t.Helper()
	in := Input{Name: "map", Src: src}
	serial := scanFile(Options{}, in)
	for _, chunks := range []int{2, 3, 4, 7} {
		got := scanFileChunks(Options{}, in, chunks)
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("chunks=%d: fragment differs from serial scan\nserial: %+v\nsplit:  %+v",
				chunks, serial, got)
		}
	}
	return serial
}

func TestSplitPlainStatements(t *testing.T) {
	f := checkSplitParity(t, "a b(1), c\nb d\nc d(2)\nd e\ne f\n")
	if len(f.stmts) == 0 || len(f.errors) != 0 {
		t.Fatalf("unexpected serial scan: %+v", f)
	}
}

func TestSplitBackslashContinuation(t *testing.T) {
	// Every newline but the last is escaped: a naive cut at any interior
	// line start would start a chunk mid-statement.
	checkSplitParity(t, "a b, \\\nc, \\\nd, \\\ne\nf g\nh i\n")
}

func TestSplitTrailingComma(t *testing.T) {
	checkSplitParity(t, "a b,\nc,\nd\ne f\ng h\n")
}

func TestSplitCommaThenCommentAndBlankLines(t *testing.T) {
	// The scanner holds its last-token state across comment-only and
	// blank lines, so the statement is still continuing at "d".
	checkSplitParity(t, "a b,\n# interlude\n\n# more\nd\ne f\ng h\n")
}

func TestSplitCommentOnlyRegions(t *testing.T) {
	checkSplitParity(t, "# one\n# two\na b\n# three\nc d\n# four\n# five\ne f\n")
}

func TestSplitCostParens(t *testing.T) {
	// Commas, '#', and nested parens inside a cost expression are
	// literal text; none of them may influence split state.
	checkSplitParity(t, "a b(4+(2*3)), c(DEMAND+LOW)\nx y(HIGH#),z\np q(1),\nr\n")
}

func TestSplitNetAndAliasDecls(t *testing.T) {
	f := checkSplitParity(t, "net = !{a, b,\nc, d}(LOCAL)\nh = ha, hb\nnet2 = {e,\nf}\nx y\n")
	var nets int
	for _, st := range f.stmts {
		if st.op == ReplayNet {
			nets++
		}
	}
	if nets != 2 {
		t.Fatalf("expected 2 ReplayNet stmts, got %d", nets)
	}
}

func TestSplitPendingAndCommands(t *testing.T) {
	checkSplitParity(t, "private {x}\na x\nx b\ndead {a!x}\ndelete {x!b}\nadjust {a(4)}\nc d\n")
}

func TestSplitFileCommandFallsBack(t *testing.T) {
	// file{} switches the private scope; a non-final chunk containing it
	// must force the serial fallback (checked by parity: the fallback IS
	// the serial scan).
	f := checkSplitParity(t, "a b\nfile {other}\nprivate {p}\nc p\nd e\nf g\n")
	if !f.sawFile {
		t.Fatalf("serial fragment did not record sawFile")
	}
}

func TestSplitScanErrorFallsBack(t *testing.T) {
	for _, src := range []string{
		"a b\nc d\ne (1\n2)\nf g\n", // newline inside cost expression
		"a b\nc \\d\ne f\ng h\n",    // backslash not before newline
		"a b\nc d(1\n",              // unterminated cost at EOF
		"a b\nc d, e(\n",            // unterminated at EOF after comma
		"a b\n# no final newline",   // comment runs to EOF
		"a b\nc d",                  // no trailing newline
		"a =\nb c\n",                // syntax error, recovered
		"{ x\na b\nc d\n",           // statement starting with '{'
	} {
		checkSplitParity(t, src)
	}
}

func TestSplitEmptyAndTiny(t *testing.T) {
	for _, src := range []string{"", "\n", "a b\n", "#c\n", "a b"} {
		checkSplitParity(t, src)
	}
}

// TestParseWithSingleFileParallel drives the public entry point over a
// source large enough to cross the chunking threshold and checks the
// parallel parse against the serial one, node for node and link for link.
func TestParseWithSingleFileParallel(t *testing.T) {
	var sb strings.Builder
	i := 0
	for sb.Len() < 2*minChunkBytes+4096 {
		fmt.Fprintf(&sb, "h%d h%d(LOCAL), h%d, hub%d!\n", i, i+1, i+2, i%17)
		if i%97 == 0 {
			fmt.Fprintf(&sb, "net%d = !{h%d,\nh%d}(HOURLY+4)\n", i, i, i+1)
		}
		i++
	}
	src := sb.String()
	in := Input{Name: "big", Src: src}

	parseAt := func(procs int) (*Result, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return ParseWith(Options{}, in)
	}
	serial, serr := parseAt(1)
	par, perr := parseAt(4)
	if (serr == nil) != (perr == nil) {
		t.Fatalf("error mismatch: serial=%v parallel=%v", serr, perr)
	}
	if !reflect.DeepEqual(serial.Warnings, par.Warnings) {
		t.Fatalf("warnings differ: %v vs %v", serial.Warnings, par.Warnings)
	}
	sn, pn := serial.Graph.Nodes(), par.Graph.Nodes()
	if len(sn) != len(pn) {
		t.Fatalf("node counts differ: serial=%d parallel=%d", len(sn), len(pn))
	}
	for i := range sn {
		a, b := sn[i], pn[i]
		if a.Name != b.Name || a.Flags != b.Flags || a.Adjust != b.Adjust || a.File != b.File {
			t.Fatalf("node %d differs: serial=%+v parallel=%+v", i, a, b)
		}
		la, lb := a.FirstLink(), b.FirstLink()
		for la != nil || lb != nil {
			if la == nil || lb == nil {
				t.Fatalf("node %q link counts differ", a.Name)
			}
			if la.To.ID != lb.To.ID || la.Cost != lb.Cost || la.Flags != lb.Flags || la.Op != lb.Op {
				t.Fatalf("node %q link to %q differs", a.Name, la.To.Name)
			}
			la, lb = la.Next, lb.Next
		}
	}
}

// FuzzStatementSplit holds the split == serial property over arbitrary
// bytes and chunk counts, and checks SplitStatements' own invariants.
func FuzzStatementSplit(f *testing.F) {
	f.Add("a b, \\\nc\nd e\n", uint8(2))
	f.Add("a b,\n#x\n\nc\nd e\n", uint8(3))
	f.Add("n = {a,\nb}(1+(2,3))\nc d\n", uint8(4))
	f.Add("a b\nfile {z}\nc d\ne f\n", uint8(2))
	f.Add("a (1\n2)\nb c\n", uint8(3))
	f.Add("private {p}\nx p\ndead {x!p}\n", uint8(5))
	f.Fuzz(func(t *testing.T, src string, chunks uint8) {
		n := int(chunks%8) + 2
		offs := lexer.SplitStatements(src, n)
		if len(offs) == 0 || offs[0] != 0 || len(offs) > n && n > 1 {
			t.Fatalf("bad offsets %v for chunks=%d", offs, n)
		}
		for i := 1; i < len(offs); i++ {
			if offs[i] <= offs[i-1] || offs[i] >= len(src) {
				t.Fatalf("offsets not increasing in range: %v (len %d)", offs, len(src))
			}
			if src[offs[i]-1] != '\n' {
				t.Fatalf("offset %d not at a line start", offs[i])
			}
		}
		in := Input{Name: "fuzz", Src: src}
		serial := scanFile(Options{}, in)
		got := scanFileChunks(Options{}, in, n)
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("chunks=%d: fragment differs from serial scan", n)
		}
	})
}
