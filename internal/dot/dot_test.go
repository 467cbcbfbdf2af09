package dot

import (
	"strings"
	"testing"

	"pathalias/internal/mapper"
	"pathalias/internal/parser"
)

func setup(t *testing.T, src, local string) (*parser.Result, *mapper.Result) {
	t.Helper()
	pres, err := parser.ParseString("t", src)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := pres.Graph.Lookup(local)
	if !ok {
		t.Fatalf("no %q", local)
	}
	mres, err := mapper.Run(pres.Graph, n, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return pres, mres
}

func TestWriteGraph(t *testing.T) {
	pres, _ := setup(t, `a b(10), @c(20)
a = nickname
NET = {a, b}(5)
.edu = {.sub}
dead {a!b}
`, "a")
	var sb strings.Builder
	if err := WriteGraph(&sb, pres.Graph, nil, Options{Costs: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"digraph pathalias",
		`"a" -> "b"`,
		`label="10"`,
		"color=red",     // dead link
		"shape=box",     // network
		"style=rounded", // domain
		`label="alias"`, // alias edge
		"color=gray",    // net member edges
	} {
		if !strings.Contains(out, want) {
			t.Errorf("graph DOT missing %q:\n%s", want, out)
		}
	}
	// Alias pair rendered once, not twice.
	if strings.Count(out, `label="alias"`) != 1 {
		t.Errorf("alias rendered %d times", strings.Count(out, `label="alias"`))
	}
}

func TestWriteGraphMarksRun(t *testing.T) {
	// leaf is reached over the invented b->leaf: the winners' tree edges
	// are bold, the invented link dotted, the unused a->c plain.
	pres, mres := setup(t, "a b(10), c(100)\nb c(10)\nleaf b(25)\n", "a")
	var sb strings.Builder
	if err := WriteGraph(&sb, pres.Graph, mres, Options{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"a" -> "b" [penwidth=2];`,
		`"b" -> "c" [penwidth=2];`,
		`"a" -> "c";`,
		`"leaf" -> "b";`,
		`"b" -> "leaf" [penwidth=2, style=dotted];`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("graph DOT missing %q:\n%s", want, out)
		}
	}
	// Without a result, nothing is marked and nothing is invented.
	sb.Reset()
	if err := WriteGraph(&sb, pres.Graph, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); strings.Contains(out, "penwidth") || strings.Contains(out, `"b" -> "leaf"`) {
		t.Errorf("graph DOT without a run marks edges:\n%s", out)
	}
}

func TestWriteGraphTruncation(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 50; i++ {
		src.WriteString("h")
		src.WriteByte(byte('a' + i%26))
		src.WriteByte(byte('a' + i/26))
		src.WriteString(" hub(10)\n")
	}
	pres, err := parser.ParseString("t", src.String())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteGraph(&sb, pres.Graph, nil, Options{MaxNodes: 10}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "more nodes") {
		t.Error("truncation marker missing")
	}
}

func TestWriteTree(t *testing.T) {
	_, mres := setup(t, "a b(10)\nb c(10)\n", "a")
	var sb strings.Builder
	if err := WriteTree(&sb, mres); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph routes", `"a" -> "b"`, `"b" -> "c"`, `a\n0`, `b\n10`} {
		if !strings.Contains(out, want) {
			t.Errorf("tree DOT missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTreeSecondBest(t *testing.T) {
	pres, err := parser.ParseString("t", `a d1(50), b(100)
.dom = {caip}(50)
d1 .dom(0)
b caip(50)
caip motown(25)
`)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := pres.Graph.Lookup("a")
	opts := mapper.DefaultOptions()
	opts.SecondBest = true
	mres, err := mapper.Run(pres.Graph, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteTree(&sb, mres); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Both caip labels appear with distinct identities.
	if !strings.Contains(out, "caip#tainted") {
		t.Errorf("tainted label missing:\n%s", out)
	}
	if !strings.Contains(out, "style=dashed") {
		t.Error("non-winning label not dashed")
	}
}

func TestQuoteEscaping(t *testing.T) {
	if quote(`x"y`) != `"x\"y"` {
		t.Errorf("quote = %q", quote(`x"y`))
	}
}
