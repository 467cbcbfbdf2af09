package parser

// The MaxErrors budget is global across a parse's inputs: a parse stops
// at the statement that began after the twentieth error, whichever file
// holds it, and drops that statement's and every later statement's
// operations, warnings and pending dead/delete items. Each case below
// pins the exact errors, warnings and graph a parse reports, recorded
// from the serial parse; the parse must reproduce them at any scan
// width.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pathalias/internal/graph"
)

// budgetErrLines returns n statements, each a one-error alias
// declaration missing its alias, interleaved with error-free host
// declarations tag0, tag1, ... that each link to hub.
func budgetErrLines(tag string, n int) string {
	var sb strings.Builder
	for i := range n {
		fmt.Fprintf(&sb, "%s%d\thub(%d)\n%s%d =\n", tag, i, 10+i, tag, i)
	}
	return sb.String()
}

// graphDigest hashes everything a parse leaves in the graph: nodes in
// ID order with their flags, files, adjustments and gateways, every
// link with its cost, flags and routing character, and the folding
// counters.
func graphDigest(g *graph.Graph) string {
	h := sha256.New()
	st := g.Stats()
	fmt.Fprintf(h, "dup=%d self=%d\n", st.DupLinks, st.SelfLinks)
	for _, n := range g.Nodes() {
		fmt.Fprintf(h, "%d %q %d %q %d", n.ID, n.Name, n.Flags, n.File, n.Adjust)
		for _, gw := range n.Gateways() {
			fmt.Fprintf(h, " gw=%d", gw.ID)
		}
		for l := n.FirstLink(); l != nil; l = l.Next {
			fmt.Fprintf(h, " ->%d/%d/%d/%c%d", l.To.ID, l.Cost, l.Flags, l.Op.Char, l.Op.Dir)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// aliasErr is the error an alias declaration without aliases reports
// after its position.
const aliasErr = ": expected '{', routing character, or alias name after '=', got newline"

// budgetCases are multi-file inputs with syntax errors, and what a
// parse of each reports.
var budgetCases = []struct {
	name     string
	inputs   []Input
	errors   []string
	warnings []string
	digest   string
}{
	{
		name: "cutoff mid-file",
		inputs: []Input{
			{"a.map", budgetErrLines("a", 12)},
			{"b.map", budgetErrLines("b", 12) + "bz\tb0(1)\n"},
			{"c.map", "c0\thub(1)\n"},
		},
		errors: []string{
			"a.map:2:5" + aliasErr,
			"a.map:4:5" + aliasErr,
			"a.map:6:5" + aliasErr,
			"a.map:8:5" + aliasErr,
			"a.map:10:5" + aliasErr,
			"a.map:12:5" + aliasErr,
			"a.map:14:5" + aliasErr,
			"a.map:16:5" + aliasErr,
			"a.map:18:5" + aliasErr,
			"a.map:20:5" + aliasErr,
			"a.map:22:6" + aliasErr,
			"a.map:24:6" + aliasErr,
			"b.map:2:5" + aliasErr,
			"b.map:4:5" + aliasErr,
			"b.map:6:5" + aliasErr,
			"b.map:8:5" + aliasErr,
			"b.map:10:5" + aliasErr,
			"b.map:12:5" + aliasErr,
			"b.map:14:5" + aliasErr,
			"b.map:16:5" + aliasErr,
		},
		warnings: nil,
		digest:   "2ebfdcaea87595c4",
	},
	{
		name: "cutoff at a file boundary",
		inputs: []Input{
			{"a.map", budgetErrLines("a", 20)},
			{"b.map", "b0\thub(1)\nb0 =\n"},
		},
		errors: []string{
			"a.map:2:5" + aliasErr,
			"a.map:4:5" + aliasErr,
			"a.map:6:5" + aliasErr,
			"a.map:8:5" + aliasErr,
			"a.map:10:5" + aliasErr,
			"a.map:12:5" + aliasErr,
			"a.map:14:5" + aliasErr,
			"a.map:16:5" + aliasErr,
			"a.map:18:5" + aliasErr,
			"a.map:20:5" + aliasErr,
			"a.map:22:6" + aliasErr,
			"a.map:24:6" + aliasErr,
			"a.map:26:6" + aliasErr,
			"a.map:28:6" + aliasErr,
			"a.map:30:6" + aliasErr,
			"a.map:32:6" + aliasErr,
			"a.map:34:6" + aliasErr,
			"a.map:36:6" + aliasErr,
			"a.map:38:6" + aliasErr,
			"a.map:40:6" + aliasErr,
		},
		warnings: nil,
		digest:   "a4ef271097c36882",
	},
	{
		name: "cutoff at the next file's first statement",
		inputs: []Input{
			{"a.map", budgetErrLines("a", 19)},
			{"b.map", "b0 =\nb1\thub(1)\n"},
			{"c.map", "c0\thub(1)\n"},
		},
		errors: []string{
			"a.map:2:5" + aliasErr,
			"a.map:4:5" + aliasErr,
			"a.map:6:5" + aliasErr,
			"a.map:8:5" + aliasErr,
			"a.map:10:5" + aliasErr,
			"a.map:12:5" + aliasErr,
			"a.map:14:5" + aliasErr,
			"a.map:16:5" + aliasErr,
			"a.map:18:5" + aliasErr,
			"a.map:20:5" + aliasErr,
			"a.map:22:6" + aliasErr,
			"a.map:24:6" + aliasErr,
			"a.map:26:6" + aliasErr,
			"a.map:28:6" + aliasErr,
			"a.map:30:6" + aliasErr,
			"a.map:32:6" + aliasErr,
			"a.map:34:6" + aliasErr,
			"a.map:36:6" + aliasErr,
			"a.map:38:6" + aliasErr,
			"b.map:1:5" + aliasErr,
		},
		warnings: nil,
		digest:   "f944f45ac1d440de",
	},
	{
		name: "two errors in the statement at the edge",
		inputs: []Input{
			{"a.map", budgetErrLines("a", 19)},
			{"b.map", "b0\thub(1)\nw\tw, y z ;\nb1\thub(2)\n"},
			{"c.map", "c0\thub(1)\n"},
		},
		errors: []string{
			"a.map:2:5" + aliasErr,
			"a.map:4:5" + aliasErr,
			"a.map:6:5" + aliasErr,
			"a.map:8:5" + aliasErr,
			"a.map:10:5" + aliasErr,
			"a.map:12:5" + aliasErr,
			"a.map:14:5" + aliasErr,
			"a.map:16:5" + aliasErr,
			"a.map:18:5" + aliasErr,
			"a.map:20:5" + aliasErr,
			"a.map:22:6" + aliasErr,
			"a.map:24:6" + aliasErr,
			"a.map:26:6" + aliasErr,
			"a.map:28:6" + aliasErr,
			"a.map:30:6" + aliasErr,
			"a.map:32:6" + aliasErr,
			"a.map:34:6" + aliasErr,
			"a.map:36:6" + aliasErr,
			"a.map:38:6" + aliasErr,
			`b.map:2:8: unexpected name("z") at end of statement`,
			"b.map:2:10: illegal character ';'",
		},
		warnings: []string{
			`b.map:2:4: ignoring self link "w"`,
		},
		digest: "8090e107252bf756",
	},
	{
		name: "a scan error ends its file, not the parse",
		inputs: []Input{
			{"a.map", budgetErrLines("a", 5) + "bad ;\nnot\tscanned\n"},
			{"b.map", budgetErrLines("b", 16)},
		},
		errors: []string{
			"a.map:2:5" + aliasErr,
			"a.map:4:5" + aliasErr,
			"a.map:6:5" + aliasErr,
			"a.map:8:5" + aliasErr,
			"a.map:10:5" + aliasErr,
			"a.map:11:5: illegal character ';'",
			`a.map:11:1: expected links, '=', or end of statement after "bad", got EOF`,
			"b.map:2:5" + aliasErr,
			"b.map:4:5" + aliasErr,
			"b.map:6:5" + aliasErr,
			"b.map:8:5" + aliasErr,
			"b.map:10:5" + aliasErr,
			"b.map:12:5" + aliasErr,
			"b.map:14:5" + aliasErr,
			"b.map:16:5" + aliasErr,
			"b.map:18:5" + aliasErr,
			"b.map:20:5" + aliasErr,
			"b.map:22:6" + aliasErr,
			"b.map:24:6" + aliasErr,
			"b.map:26:6" + aliasErr,
		},
		warnings: nil,
		digest:   "ca3bdec1c466cbca",
	},
	{
		name: "warnings and pending items after the cutoff",
		inputs: []Input{
			{"a.map", "p\tq(1), p\nq\tr(2)\ndead {p!q}\ndelete {p!nolink}\n" + budgetErrLines("a", 10)},
			{"b.map", budgetErrLines("b", 9) + "u\tu, v(NOSUCH)\n" +
				"s\ts\ndead {q!r}\ndelete {q!p}\ndead {nolink!x}\nt\tt\n"},
			{"c.map", "c\tc\ndead {p!q}\n"},
		},
		errors: []string{
			"a.map:6:5" + aliasErr,
			"a.map:8:5" + aliasErr,
			"a.map:10:5" + aliasErr,
			"a.map:12:5" + aliasErr,
			"a.map:14:5" + aliasErr,
			"a.map:16:5" + aliasErr,
			"a.map:18:5" + aliasErr,
			"a.map:20:5" + aliasErr,
			"a.map:22:5" + aliasErr,
			"a.map:24:5" + aliasErr,
			"b.map:2:5" + aliasErr,
			"b.map:4:5" + aliasErr,
			"b.map:6:5" + aliasErr,
			"b.map:8:5" + aliasErr,
			"b.map:10:5" + aliasErr,
			"b.map:12:5" + aliasErr,
			"b.map:14:5" + aliasErr,
			"b.map:16:5" + aliasErr,
			"b.map:18:5" + aliasErr,
			`b.map:19:7: bad cost for link to "v": cost: unknown cost symbol "NOSUCH" at offset 0 in "NOSUCH"`,
		},
		warnings: []string{
			`a.map:1:10: ignoring self link "p"`,
			`b.map:19:4: ignoring self link "u"`,
			"a.map:4:9: delete{p!nolink}: no such link",
		},
		digest: "f76158964cede2c5",
	},
	{
		name: "file switch",
		inputs: []Input{
			{"a.map", "private {h}\nh\tx(1)\nfile {other}\nprivate {h}\nh\ty(2)\ndead {h!y}\ndelete {h!x}\n" +
				budgetErrLines("a", 10)},
			{"b.map", "h\tz(3)\ndead {h!z}\n" + budgetErrLines("b", 12) + "dead {h!x}\n"},
		},
		errors: []string{
			"a.map:9:5" + aliasErr,
			"a.map:11:5" + aliasErr,
			"a.map:13:5" + aliasErr,
			"a.map:15:5" + aliasErr,
			"a.map:17:5" + aliasErr,
			"a.map:19:5" + aliasErr,
			"a.map:21:5" + aliasErr,
			"a.map:23:5" + aliasErr,
			"a.map:25:5" + aliasErr,
			"a.map:27:5" + aliasErr,
			"b.map:4:5" + aliasErr,
			"b.map:6:5" + aliasErr,
			"b.map:8:5" + aliasErr,
			"b.map:10:5" + aliasErr,
			"b.map:12:5" + aliasErr,
			"b.map:14:5" + aliasErr,
			"b.map:16:5" + aliasErr,
			"b.map:18:5" + aliasErr,
			"b.map:20:5" + aliasErr,
			"b.map:22:5" + aliasErr,
		},
		warnings: []string{
			"a.map:7:9: delete{h!x}: no such link",
		},
		digest: "fa547955fb7e3231",
	},
}

func TestCrossFileErrorBudget(t *testing.T) {
	for _, c := range budgetCases {
		t.Run(c.name, func(t *testing.T) {
			res, err := ParseWith(Options{}, c.inputs...)
			var errs []string
			if pe, ok := err.(*ParseError); ok {
				errs = pe.Errors
			} else if err != nil {
				t.Fatalf("error %v is not a *ParseError", err)
			}
			if !reflect.DeepEqual(errs, c.errors) {
				t.Errorf("errors:\n got %q\nwant %q", errs, c.errors)
			}
			if !reflect.DeepEqual(res.Warnings, c.warnings) {
				t.Errorf("warnings:\n got %q\nwant %q", res.Warnings, c.warnings)
			}
			if d := graphDigest(res.Graph); d != c.digest {
				t.Errorf("graph digest %s, want %s", d, c.digest)
			}
		})
	}
}
