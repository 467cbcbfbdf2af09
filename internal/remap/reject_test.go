package remap

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"pathalias/internal/mapgen"
	"pathalias/internal/parser"
)

// TestMultiRejectsSyntaxErrors: an input set with syntax errors is
// rejected with the *parser.ParseError a parse of the same inputs
// returns, MaxErrors cutoff included — the same set again returns that
// error without a scan — and changes no served state: every
// resident vantage keeps its Result and route generation, and the next
// clean edit of one file still takes the warm path.
func TestMultiRejectsSyntaxErrors(t *testing.T) {
	pins, local := mapgen.Generate(mapgen.Small())
	base := toInputs(pins)
	if len(base) < 2 {
		t.Fatalf("the map has %d files, want two or more", len(base))
	}
	// broken returns base with n0 one-error lines appended to its first
	// file, and n1 of them, then tail, to its second.
	const errLine = "host1\thost2(10) junk\n"
	broken := func(n0, n1 int, tail string) []Input {
		out := slices.Clone(base)
		out[0].Src += strings.Repeat(errLine, n0)
		out[1].Src += strings.Repeat(errLine, n1) + tail
		return out
	}
	// One statement with two errors: the unexpected '{', then the
	// illegal character the error recovery scans into.
	const twoErrors = "host1\t{ \x01\n"
	cases := []struct {
		name   string
		inputs []Input
		nerrs  int // how many errors a parse reports
	}{
		{"one error", broken(0, 1, ""), 1},
		{"cutoff across files", broken(15, 15, ""), parser.MaxErrors},
		{"two errors at the budget edge", broken(parser.MaxErrors-1, 0, twoErrors), parser.MaxErrors + 1},
		{"repeated name", append(slices.Clone(base), Input{Name: base[0].Name, Src: strings.Repeat(errLine, 2)}), 2},
	}

	vantages := []string{local, "host3", "host11"}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			opts := Options{LocalHost: local}
			m, err := NewMulti(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Update(base); err != nil {
				t.Fatal(err)
			}
			prev := make(map[string]*Result)
			for _, h := range vantages {
				if prev[h], err = m.ResultFor(h); err != nil {
					t.Fatal(err)
				}
			}

			_, werr := parser.ParseWith(parser.Options{}, tc.inputs...)
			var want *parser.ParseError
			if !errors.As(werr, &want) || len(want.Errors) != tc.nerrs {
				t.Fatalf("a parse reports %v, want %d errors", werr, tc.nerrs)
			}
			uerr := m.Update(tc.inputs)
			var got *parser.ParseError
			if !errors.As(uerr, &got) {
				t.Fatalf("update error %v, want a *parser.ParseError", uerr)
			}
			if !slices.Equal(got.Errors, want.Errors) {
				t.Fatalf("update errors\n%q\nwant\n%q", got.Errors, want.Errors)
			}

			// The same broken set again, read into fresh strings as a
			// watcher re-reading the files would: the same error, and
			// nothing scanned.
			again := slices.Clone(tc.inputs)
			for i := range again {
				again[i].Src = strings.Clone(again[i].Src)
			}
			before := m.Stats()
			if err := m.Update(again); err != uerr {
				t.Fatalf("repeated update error %v, want the first rejection's %v", err, uerr)
			}
			if after := m.Stats(); after != before {
				t.Fatalf("repeated rejected update did work: stats %+v, before %+v", after, before)
			}

			for _, h := range vantages {
				res, err := m.ResultFor(h)
				if err != nil {
					t.Fatalf("[%s] after the rejected update: %v", h, err)
				}
				if res != prev[h] || res.RouteGen != prev[h].RouteGen {
					t.Errorf("[%s] the rejected update changed the served result", h)
				}
			}

			edited := slices.Clone(base)
			edited[0].Src = strings.Replace(edited[0].Src, "(DEMAND)", "(WEEKLY)", 1)
			if edited[0].Src == base[0].Src {
				t.Fatal("test edit found nothing to replace")
			}
			if err := m.Update(edited); err != nil {
				t.Fatal(err)
			}
			for _, h := range vantages {
				checkVantage(t, m, opts, edited, h, "clean edit")
			}
			if res, err := m.ResultFor(local); err != nil || !res.Incremental {
				t.Errorf("the clean edit after the rejected update re-mapped fully (err %v)", err)
			}
		})
	}
}
