package remap

// Window rescans through the engine: an edited file is re-scanned only
// around its edit (parser.Rescan), and the statement-range patch looks
// for its common prefix and suffix only inside that window. Every step
// below must leave the default vantage and two resident ones
// byte-identical to fresh runs, and must have taken the scan path it
// names.

import (
	"strings"
	"testing"
)

// rescanEquivBase is stmtPatchBase's a.map with a self link's warning
// and a pending dead item above it, and a bare name a trailing comma
// can swallow below; plus b.map, and c.map with a file{} switch.
var rescanEquivBase = []Input{
	{Name: "a.map", Src: "s\ts\nx\ty(DAILY)\ndead {k!l}\n" + stmtPatchBase[0].Src + "m\n"},
	stmtPatchBase[1],
	{Name: "c.map", Src: "p\tq(DAILY)\nfile {c2}\nq\tp(DAILY)\n"},
}

// Scan paths an update can take for the edited file.
const (
	scanNone   = "none"   // the source is the one last scanned
	scanWindow = "window" // a window around the edit, empty for a deletion of whole statements
	scanWhole  = "whole"  // the whole file
)

func TestRescanEquivalence(t *testing.T) {
	type step struct {
		name     string
		file     int
		from, to string
		scan     string
		broken   bool // the edit leaves a syntax error
	}
	var steps []step
	// PR 16's mid-file edits of every journal kind, each made and
	// reverted: windows both ways.
	for _, e := range []struct{ name, from, to string }{
		{"cost change", "e\tf(HOURLY)", "e\tf(WEEKLY)"},
		{"line removed", "f\tg(DAILY), h(WEEKLY)\ng\th", "g\th"},
		{"line inserted", "e\tf(", "m\td(DAILY), a(HOURLY)\ne\tf("},
		{"tie won by an earlier duplicate", "c\td(DAILY)", "c\t@d(DAILY)\nc\td(DAILY)"},
		{"tie kept by the later duplicate", "NET =", "c\t@d(DAILY)\nNET ="},
		{"cost duplicate undercuts", "NET =", "c\td(DEMAND)\nNET ="},
		{"alias", "NET =", "d = dd\nNET ="},
		{"network members", "NET = {c, d, e}", "NET = {c, d, e, g}"},
		{"network cost", "NET = {c, d, e}(DAILY)", "NET = {c, d, e}(WEEKLY)"},
		{"dead link", "NET =", "dead {d!e}\nNET ="},
		{"dead host", "NET =", "dead {c}\nNET ="},
		{"delete host", "NET =", "delete {g}\nNET ="},
		{"delete link", "NET =", "delete {e!f}\nNET ="},
		{"gatewayed", "NET =", "gatewayed {NET}\nNET ="},
		{"adjust", "NET =", "adjust {d(+500)}\nNET ="},
		{"gateway", "h\ta(WEEKLY)", "gateway {NET!e}\nh\ta(WEEKLY)"},
		{"private added", "k\tl(DAILY)", "private {k}\nk\tl(DAILY)"},
	} {
		steps = append(steps,
			step{name: e.name, from: e.from, to: e.to, scan: scanWindow},
			step{name: e.name + " reverted", from: e.to, to: e.from, scan: scanWindow})
	}
	steps = append(steps, []step{
		// Edits that join or split statements: the window must run on
		// to where both versions start a statement again.
		{name: "trailing comma joins the next line", from: "k\tl(DAILY)\n", to: "k\tl(DAILY),\n", scan: scanWindow},
		{name: "trailing comma removed", from: "k\tl(DAILY),\n", to: "k\tl(DAILY)\n", scan: scanWindow},
		{name: "backslash-newline splits a line", from: "a\tb(DAILY), c(HOURLY)", to: "a\tb(DAILY), \\\nc(HOURLY)", scan: scanWindow},
		{name: "backslash-newline removed", from: "a\tb(DAILY), \\\nc(HOURLY)", to: "a\tb(DAILY), c(HOURLY)", scan: scanWindow},
		{name: "comment opened", from: "g\th(DAILY), a(DAILY)", to: "#g\th(DAILY), a(DAILY)", scan: scanWindow},
		{name: "comment closed", from: "#g\th(DAILY), a(DAILY)", to: "g\th(DAILY), a(DAILY)", scan: scanWindow},
		{name: "network over three lines", from: "NET = {c, d, e}", to: "NET = {c,\n\td,\n\te}", scan: scanWindow},
		{name: "member added mid-network", from: "\td,\n", to: "\td, g,\n", scan: scanWindow},
		{name: "network on one line again", from: "NET = {c,\n\td, g,\n\te}", to: "NET = {c, d, e}", scan: scanWindow},
		// Lines moved under a reused warning or pending item: their
		// positions are in their text, so the whole file is scanned.
		{name: "line added above the warning", from: "s\ts\n", to: "z\ty(DAILY)\ns\ts\n", scan: scanWhole},
		{name: "line removed above the warning", from: "z\ty(DAILY)\ns\ts\n", to: "s\ts\n", scan: scanWhole},
		{name: "line added above the pending item", from: "x\ty(DAILY)\n", to: "z\ty(DAILY)\nx\ty(DAILY)\n", scan: scanWhole},
		{name: "line removed above the pending item", from: "z\ty(DAILY)\nx\ty(DAILY)\n", to: "x\ty(DAILY)\n", scan: scanWhole},
		{name: "same-line edit above them", from: "s\ts\n", to: "s\tz\n", scan: scanWindow},
		{name: "warning restored", from: "s\tz\n", to: "s\ts\n", scan: scanWindow},
		// A file{} switch makes the file unsplittable.
		{name: "file{} file edited", file: 2, from: "q\tp(DAILY)", to: "q\tp(WEEKLY)", scan: scanWhole},
		// A syntax error: the whole file is scanned and served by a
		// plain merge; restoring the last clean text rescans nothing,
		// and the next edit is a window against that text again.
		{name: "syntax error", from: "c\td(DAILY)", to: "c\td(DAILY", scan: scanWhole, broken: true},
		{name: "syntax error fixed", from: "c\td(DAILY", to: "c\td(DAILY)", scan: scanNone},
		{name: "edit after the fix", from: "e\tf(HOURLY)", to: "e\tf(DEMAND)", scan: scanWindow},
	}...)

	opts := Options{LocalHost: "a"}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	vantages := []string{"a", "i", "g"}
	inputs := append([]Input(nil), rescanEquivBase...)
	if err := m.Update(inputs); err != nil {
		t.Fatal(err)
	}
	for _, h := range vantages {
		checkVantage(t, m, opts, inputs, h, "initial")
	}
	for _, st := range steps {
		src := inputs[st.file].Src
		if !strings.Contains(src, st.from) {
			t.Fatalf("%s: %s has no %q", st.name, inputs[st.file].Name, st.from)
		}
		inputs = append([]Input(nil), inputs...)
		inputs[st.file].Src = strings.Replace(src, st.from, st.to, 1)
		rescanned := m.Stats().Rescanned
		if err := m.Update(inputs); (err != nil) != st.broken {
			t.Fatalf("%s: update error %v, want one: %v", st.name, err, st.broken)
		}
		if !st.broken { // a broken update keeps serving the last good results
			for _, h := range vantages {
				checkVantage(t, m, opts, inputs, h, st.name)
			}
		}
		tm := m.Timing()
		scan := scanWindow
		switch n := len(inputs[st.file].Src); {
		case m.Stats().Rescanned == rescanned:
			scan = scanNone
		case tm.BytesRescanned == n:
			scan = scanWhole
		case tm.BytesRescanned > n/2:
			t.Errorf("%s: a window of %d of %d bytes", st.name, tm.BytesRescanned, n)
		}
		if scan != st.scan {
			t.Errorf("%s: scan path %s (%d bytes), want %s", st.name, scan, tm.BytesRescanned, st.scan)
		}
	}
}
