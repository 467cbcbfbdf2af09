package remap

// Statement-range patching: an edited file replays only the statements
// between the common prefix and suffix of its old and new fragments —
// the new ones first, then the old ones undone — and splices their
// journal entries in place. These tests pin byte identity for a
// mid-file edit of every journal kind, the fallbacks to the whole-file
// path, and the work a one-line edit costs on a 50k-host map.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pathalias/internal/mapgen"
)

// stmtPatchBase is a two-file map whose first file holds one statement
// of most kinds; every case below edits the middle of a.map.
var stmtPatchBase = []Input{
	{Name: "a.map", Src: `a	b(DAILY), c(HOURLY)
b	c(DAILY), d(WEEKLY)
c	d(DAILY), @e(HOURLY)
NET = {c, d, e}(DAILY)
d	e(DEMAND), f(DAILY)
e	f(HOURLY), g(DAILY)
f	g(DAILY), h(WEEKLY)
g	h(DAILY), a(DAILY)
h	a(WEEKLY), .dom(DAILY)
.dom = {x, y}
k	l(DAILY)
`},
	{Name: "b.map", Src: `i	a(DAILY), j(HOURLY)
j	k(DAILY), e(DEMAND)
k	i(DAILY)
l	y(DAILY)
`},
}

// TestStmtPatchEquivalence edits the middle of a.map, then reverts the
// edit. After each step the default vantage and two resident vantages
// must be byte-identical to a fresh run, the file must have been patched
// by statement range (or not, for the private fallbacks), and the
// number of statements replayed must be exactly the edited ones.
func TestStmtPatchEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		from, to string // replaced in a.map
		patched  bool   // a statement-range patch, both ways
		replayed int    // statements applied plus undone, each way
	}{
		{"cost change", "e\tf(HOURLY)", "e\tf(WEEKLY)", true, 2},
		{"line removed", "f\tg(DAILY), h(WEEKLY)\n", "", true, 3},
		{"line inserted", "e\tf(", "m\td(DAILY), a(HOURLY)\ne\tf(", true, 3},
		// c→d is declared '!' at DAILY; an equal-cost '@' declaration
		// ahead of it wins the tie, one after it does not.
		{"tie won by an earlier duplicate", "c\td(DAILY)", "c\t@d(DAILY)\nc\td(DAILY)", true, 2},
		{"tie kept by the later duplicate", "NET =", "c\t@d(DAILY)\nNET =", true, 2},
		{"cost duplicate undercuts", "NET =", "c\td(DEMAND)\nNET =", true, 2},
		{"alias", "NET =", "d = dd\nNET =", true, 2},
		{"network members", "NET = {c, d, e}", "NET = {c, d, e, g}", true, 2},
		{"network cost", "NET = {c, d, e}(DAILY)", "NET = {c, d, e}(WEEKLY)", true, 2},
		{"dead link", "NET =", "dead {d!e}\nNET =", true, 0},
		{"dead host", "NET =", "dead {c}\nNET =", true, 1},
		{"delete host", "NET =", "delete {g}\nNET =", true, 1},
		{"delete link", "NET =", "delete {e!f}\nNET =", true, 0},
		{"gatewayed", "NET =", "gatewayed {NET}\nNET =", true, 1},
		{"adjust", "NET =", "adjust {d(+500)}\nNET =", true, 1},
		{"gateway", "h\ta(WEEKLY)", "gateway {NET!e}\nh\ta(WEEKLY)", true, 1},
		// A private declared mid-file rebinds k for the statements after
		// it, which the patch would not replay; removing one needs its
		// binding gone first. Both take the whole-file undo-first path.
		{"private added or removed", "k\tl(DAILY)", "private {k}\nk\tl(DAILY)", false, 0},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			opts := Options{LocalHost: "a"}
			m, err := NewMulti(opts)
			if err != nil {
				t.Fatal(err)
			}
			vantages := []string{"a", "i", "g"}
			base := append([]Input(nil), stmtPatchBase...)
			edited := append([]Input(nil), stmtPatchBase...)
			if !strings.Contains(base[0].Src, tc.from) {
				t.Fatalf("a.map has no %q", tc.from)
			}
			edited[0].Src = strings.Replace(base[0].Src, tc.from, tc.to, 1)

			for _, step := range []struct {
				label  string
				inputs []Input
			}{{"initial", base}, {"edit", edited}, {"revert", base}} {
				patches := m.Stats().RangePatches
				if err := m.Update(step.inputs); err != nil {
					t.Fatalf("%s: %v", step.label, err)
				}
				for _, h := range vantages {
					checkVantage(t, m, opts, step.inputs, h, step.label)
				}
				if step.label == "initial" {
					continue
				}
				tm := m.Timing()
				if tm.Path != "incremental" {
					t.Fatalf("%s: path %q, want incremental", step.label, tm.Path)
				}
				if got := m.Stats().RangePatches - patches; got != b2i(tc.patched) {
					t.Errorf("%s: %d range patches, want %d", step.label, got, b2i(tc.patched))
				}
				want := tc.replayed
				if !tc.patched {
					want = stmtCount(base[0].Src) + stmtCount(edited[0].Src)
				}
				if tm.StmtsReplayed != want {
					t.Errorf("%s: StmtsReplayed = %d, want %d", step.label, tm.StmtsReplayed, want)
				}
			}
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestStmtPatchReplayedWork is the deterministic work bound behind the
// edit path's patch stage: on the 50k-host map, changing the cost of
// one link in the middle of a core file replays that one declaration
// (applied once, undone once), not the file's ~42k statements twice.
func TestStmtPatchReplayedWork(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-host map; skipped in -short")
	}
	pins, local := mapgen.Generate(mapgen.Scaled(50000, 1))
	inputs := toInputs(pins)
	opts := Options{LocalHost: local}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(inputs); err != nil {
		t.Fatal(err)
	}
	const file = 2
	edited, edit := midFileCostEdit(inputs[file].Src, "WEEKLY*3")
	if edit < 0 {
		t.Fatalf("%s: no link with a cost past its middle", inputs[file].Name)
	}
	inputs[file].Src = edited
	patches := m.Stats().RangePatches
	res, err := update(m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	tm := m.Timing()
	t.Logf("%s line %d: path %s, stmts_replayed %d, nodes touched %d, links touched %d",
		inputs[file].Name, edit+1, tm.Path, tm.StmtsReplayed, tm.NodesTouched, tm.LinksTouched)
	if got := m.Stats().RangePatches - patches; got != 1 {
		t.Errorf("%d range patches, want 1", got)
	}
	if tm.StmtsReplayed > 8 {
		t.Errorf("stmts_replayed = %d for a one-link cost change, want <= 8", tm.StmtsReplayed)
	}
	checkEquivalent(t, opts, inputs, res, fmt.Sprintf("cost edit on %s line %d", inputs[file].Name, edit+1))
}

// midFileCostEdit sets the cost of the first link with one at or after
// the middle line of src, returning the new source and the edited line's
// index (-1 if there is none).
func midFileCostEdit(src, cost string) (string, int) {
	lines := strings.Split(src, "\n")
	for ln := len(lines) / 2; ln < len(lines); ln++ {
		l := lines[ln]
		if open, shut := strings.IndexByte(l, '('), strings.IndexByte(l, ')'); open > 0 && shut > open {
			lines[ln] = l[:open] + "(" + cost + ")" + l[shut+1:]
			return strings.Join(lines, "\n"), ln
		}
	}
	return src, -1
}

// BenchmarkStmtPatchMidFile times the journal patch of a one-link cost
// change in the middle of a 50k-host map's core file, alternating two
// costs so every iteration is an effective edit; patch-ms/op is the
// engine's patch stage alone (UpdateTiming.Patch), scan-ms/op its scan
// stage (UpdateTiming.Scan: the byte compare of every input and the
// edited file's window rescan).
//
//	go test -run '^$' -bench StmtPatchMidFile -benchtime 40x ./internal/remap/
func BenchmarkStmtPatchMidFile(b *testing.B) {
	pins, local := mapgen.Generate(mapgen.Scaled(50000, 1))
	inputs := toInputs(pins)
	m, err := NewMulti(Options{LocalHost: local})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Update(inputs); err != nil {
		b.Fatal(err)
	}
	const file = 2
	var srcs [2]string
	for i, c := range []string{"WEEKLY*3", "DAILY*5"} {
		if srcs[i], _ = midFileCostEdit(inputs[file].Src, c); srcs[i] == inputs[file].Src {
			b.Fatal("no mid-file link to edit")
		}
	}
	var patch, scan time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inputs[file].Src = srcs[i%2]
		if err := m.Update(inputs); err != nil {
			b.Fatal(err)
		}
		patch += m.Timing().Patch
		scan += m.Timing().Scan
	}
	b.ReportMetric(float64(patch.Microseconds())/1e3/float64(b.N), "patch-ms/op")
	b.ReportMetric(float64(scan.Microseconds())/1e3/float64(b.N), "scan-ms/op")
}

// TestStmtPatchSeqGapExhausted inserts a duplicate declaration of c→d
// right after the first line, again and again, so each new one goes
// first in declaration order and wins the equal-cost tie with its
// routing character. Every insertion halves the sequence-key gap in
// front of the previous one; when the gap runs out, the file must be
// applied whole (re-spacing its keys) and range patches resume after.
func TestStmtPatchSeqGapExhausted(t *testing.T) {
	opts := Options{LocalHost: "a"}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	inputs := append([]Input(nil), stmtPatchBase...)
	if err := m.Update(inputs); err != nil {
		t.Fatal(err)
	}
	const edits = 80
	first, rest, _ := strings.Cut(inputs[0].Src, "\n")
	patches := m.Stats().RangePatches
	for i := 0; i < edits; i++ {
		rest = fmt.Sprintf("c\t%sd(DAILY)\n", []string{"@", "!"}[i%2]) + rest
		inputs[0].Src = first + "\n" + rest
		res, err := update(m, inputs)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalent(t, opts, inputs, res, fmt.Sprintf("insertion %d", i))
	}
	got := m.Stats().RangePatches - patches
	t.Logf("%d of %d insertions range-patched", got, edits)
	if got == edits || got < edits-4 {
		t.Fatalf("%d of %d insertions range-patched; want a few whole-file re-spacings", got, edits)
	}
}
