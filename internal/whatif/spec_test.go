package whatif

import (
	"errors"
	"strings"
	"testing"
)

func TestParseSpecForms(t *testing.T) {
	// Space form, comma form (line-protocol token), and mixed separators
	// all parse to the same spec.
	a, err := ParseSpec("dead a b; cost a c DEMAND\nlink b c HOURLY*4")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("dead,a,b;cost,a,c,DEMAND;link,b,c,HOURLY*4")
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical mismatch: %q vs %q", a.Canonical(), b.Canonical())
	}
	if len(a.Edits) != 3 {
		t.Fatalf("edits = %d want 3", len(a.Edits))
	}
	if a.Edits[1].Cost != 300 {
		t.Errorf("DEMAND = %d want 300", int64(a.Edits[1].Cost))
	}
}

func TestParseSpecHostile(t *testing.T) {
	cases := []struct {
		name, spec, wantErr string
	}{
		{"empty", "", "empty overlay spec"},
		{"only separators", " ;;\n ; ", "empty overlay spec"},
		{"unknown op", "kill a b", "unknown op"},
		{"dead arity low", "dead a", "wants 2 arguments"},
		{"dead arity high", "dead a b c", "wants 2 arguments"},
		{"cost arity", "cost a b", "wants 3 arguments"},
		{"link arity", "link a b", "wants 3 arguments"},
		{"self link", "dead a a", "self-link"},
		{"duplicate", "dead a b; dead a b", "duplicate edit"},
		{"conflicting duplicate", "dead a b; cost a b 100", "duplicate edit"},
		{"bad cost", "cost a b BOGUS", "bad cost"},
		{"huge cost", "link a b DEDICATED*99999999999", "out of range"},
		{"overflowing cost", "cost a b 99999999999999999999", "bad cost"},
		{"too many", strings.Repeat("x", 0) + manyEdits(65), "too many edits"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.spec)
			if err == nil {
				t.Fatalf("ParseSpec(%q) succeeded, want error containing %q", tc.spec, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
			if errors.Is(err, ErrEmptySpec) != (tc.wantErr == "empty overlay spec") {
				t.Errorf("error %q: errors.Is(err, ErrEmptySpec) = %v", err, errors.Is(err, ErrEmptySpec))
			}
		})
	}
}

func manyEdits(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString("dead h")
		b.WriteByte(byte('0' + i%10))
		b.WriteString(string(rune('a'+i/10)) + " t")
		b.WriteByte(byte('0' + i%10))
		b.WriteString(string(rune('a' + i/10)))
	}
	return b.String()
}

func TestCanonicalRoundTrip(t *testing.T) {
	sp, err := ParseSpec("link z y 10; dead b a; cost m n WEEKLY; dead a b")
	if err != nil {
		t.Fatal(err)
	}
	canon := sp.Canonical()
	// Sorted by (op, from, to); costs as integers.
	want := "dead a b; dead b a; cost m n 30000; link z y 10"
	if canon != want {
		t.Errorf("canonical = %q want %q", canon, want)
	}
	again, err := ParseSpec(canon)
	if err != nil {
		t.Fatalf("reparse of canonical form: %v", err)
	}
	if again.Canonical() != canon {
		t.Errorf("canonical not a fixpoint: %q -> %q", canon, again.Canonical())
	}
	// The line token is the same spec with comma separators.
	tok, err := ParseSpec(sp.LineToken())
	if err != nil {
		t.Fatalf("reparse of line token %q: %v", sp.LineToken(), err)
	}
	if tok.Canonical() != canon {
		t.Errorf("line token changes meaning: %q -> %q", sp.LineToken(), tok.Canonical())
	}
	if strings.ContainsAny(sp.LineToken(), " \t\n") {
		t.Errorf("line token %q contains whitespace", sp.LineToken())
	}
}

// FuzzOverlaySpec hardens the spec parser: arbitrary input must never
// panic, and anything that parses must canonicalize to a fixpoint that
// reparses to itself — the property the overlay cache key relies on.
func FuzzOverlaySpec(f *testing.F) {
	f.Add("dead a b")
	f.Add("dead,a,b;cost,a,c,DEMAND")
	f.Add("link x y HOURLY*4\ncost p q DAILY/2")
	f.Add(";; ;\n,")
	f.Add("dead \x00 b")
	f.Add("cost a b 99999999999999999999")
	f.Add("dead a b; dead a b")
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		canon := sp.Canonical()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, s, err)
		}
		if again.Canonical() != canon {
			t.Fatalf("canonical not a fixpoint: %q -> %q", canon, again.Canonical())
		}
		tok, err := ParseSpec(sp.LineToken())
		if err != nil {
			t.Fatalf("line token %q of %q does not reparse: %v", sp.LineToken(), s, err)
		}
		if tok.Canonical() != canon {
			t.Fatalf("line token changes meaning: %q -> %q", sp.LineToken(), tok.Canonical())
		}
	})
}
