package remap_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pathalias"
	"pathalias/internal/remap"
)

// TestDuplicateDeclarationsAcrossFiles declares the link x→y in three
// files, at equal and lower costs and with different routing operators,
// and edits the map so that the surviving declaration — the first, in
// input order then file order, achieving the minimum cost — moves
// between files: the winning line removed and restored, a mid-file
// duplicate patched, the files reordered (a journal rebuild) and one
// dropped. After each step the routes from the default vantage (w,
// whose link to x two files declare, and which reaches y through x)
// and from x must be byte-identical to a fresh pathalias.Run over the
// same inputs, and the journal's ledger must hold its invariants. An
// engine that kept the last minimum instead of the first would route
// through another file's operator.
func TestDuplicateDeclarationsAcrossFiles(t *testing.T) {
	fileA := func(mid string) remap.Input {
		return remap.Input{Name: "a.map", Src: "x\ty(500)\nx\tz(20)\n" + mid + "z\tx(20)\n"}
	}
	const winner = "x\t%y(300)\n"
	fileB := remap.Input{Name: "b.map", Src: "w\tx(10)\ny\tx(50)\nx\t@y(300)\n"}
	fileC := remap.Input{Name: "c.map", Src: "w\tx(15)\nx\ty!(300)\nz\ty(900)\n"}

	steps := []struct {
		label  string
		path   string // the journal's Timing().Path
		inputs []remap.Input
	}{
		{"initial", "rebuild", []remap.Input{fileA(winner), fileB, fileC}},
		{"winning line removed", "incremental", []remap.Input{fileA(""), fileB, fileC}},
		{"winning line restored", "incremental", []remap.Input{fileA(winner), fileB, fileC}},
		{"mid-file duplicate patched", "incremental", []remap.Input{fileA("x\t%y(400)\n"), fileB, fileC}},
		{"files reordered", "rebuild", []remap.Input{fileC, fileA("x\t%y(400)\n"), fileB}},
		{"file dropped", "incremental", []remap.Input{fileC, fileB}},
	}
	const local = "w"
	m, err := remap.NewMulti(remap.Options{LocalHost: local})
	if err != nil {
		t.Fatal(err)
	}
	formats := make(map[string]bool)
	for _, step := range steps {
		if err := m.Update(step.inputs); err != nil {
			t.Fatalf("%s: %v", step.label, err)
		}
		if got := m.Timing().Path; got != step.path {
			t.Errorf("%s: journal path %q, want %q", step.label, got, step.path)
		}
		if err := remap.VerifyLedger(m); err != nil {
			t.Fatalf("%s: ledger: %v", step.label, err)
		}
		ins := make([]pathalias.Input, len(step.inputs))
		for i, in := range step.inputs {
			ins[i] = pathalias.Input{Name: in.Name, Text: in.Src}
		}
		for _, host := range []string{local, "x"} {
			want, err := pathalias.Run(pathalias.Options{LocalHost: host}, ins...)
			if err != nil {
				t.Fatalf("%s [%s]: fresh run: %v", step.label, host, err)
			}
			got, err := m.ResultFor(host)
			if err != nil {
				t.Fatalf("%s [%s]: %v", step.label, host, err)
			}
			var g, w strings.Builder
			for _, en := range got.Entries {
				fmt.Fprintf(&g, "%d\t%s\t%s\n", en.Cost, en.Host, en.Route)
			}
			for _, r := range want.Routes {
				fmt.Fprintf(&w, "%d\t%s\t%s\n", r.Cost, r.Host, r.Format)
				if r.Host == "y" && host == "x" {
					formats[r.Format] = true
				}
			}
			if g.String() != w.String() {
				t.Errorf("%s [%s]: routes diverge from a fresh run\n got:\n%s\nwant:\n%s", step.label, host, g.String(), w.String())
			}
			if !slices.Equal(got.Warnings, want.Warnings) || !slices.Equal(got.Unreachable, want.Unreachable) {
				t.Errorf("%s [%s]: warnings %q / unreachable %q, fresh run %q / %q",
					step.label, host, got.Warnings, got.Unreachable, want.Warnings, want.Unreachable)
			}
		}
	}
	// The steps must move the surviving declaration between all three
	// files' operators, or they test less than they claim.
	if len(formats) != 3 {
		t.Errorf("x's route to y took %d formats over the steps (%v), want 3", len(formats), formats)
	}
}
