package routedb

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"pathalias/internal/core"
	"pathalias/internal/cost"
	"pathalias/internal/mapgen"
	"pathalias/internal/printer"
)

func buildDB(t *testing.T, lines string) *DB {
	t.Helper()
	db, err := Load(strings.NewReader(lines))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return db
}

func TestLoadTwoFieldFormat(t *testing.T) {
	db := buildDB(t, "duke\tduke!%s\nphs\tduke!phs!%s\n")
	if db.Len() != 2 {
		t.Fatalf("Len = %d", db.Len())
	}
	e, ok := db.Lookup("duke")
	if !ok || e.Route != "duke!%s" {
		t.Errorf("Lookup(duke) = %+v, %v", e, ok)
	}
}

func TestLoadThreeFieldFormat(t *testing.T) {
	db := buildDB(t, "500\tduke\tduke!%s\n3395\tmit-ai\tduke!research!ucbvax!%s@mit-ai\n")
	e, ok := db.Lookup("mit-ai")
	if !ok || e.Cost != 3395 {
		t.Errorf("Lookup(mit-ai) = %+v, %v", e, ok)
	}
}

func TestLoadSkipsCommentsAndBlanks(t *testing.T) {
	db := buildDB(t, "# routes\n\nduke\tduke!%s\n\n")
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"onefield\n",
		"a\tb\tc\td\n",
		"x\tduke\tduke!%s\n",     // non-numeric cost
		"duke\tno-marker-here\n", // missing %s
	}
	for _, src := range cases {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("Load(%q) succeeded, want error", src)
		}
	}
	// An empty host is refused with its line number, in both formats,
	// as compiling it to an image would be.
	for _, src := range []string{"duke\tduke!%s\n\tx!%s\n", "duke\tduke!%s\n5\t\tx!%s\n"} {
		_, err := Load(strings.NewReader(src))
		if want := "routedb: line 2: empty host"; err == nil || err.Error() != want {
			t.Errorf("Load(%q) = %v, want %q", src, err, want)
		}
	}
}

func TestLookupMissing(t *testing.T) {
	db := buildDB(t, "duke\tduke!%s\n")
	if _, ok := db.Lookup("nosuch"); ok {
		t.Error("Lookup of missing host succeeded")
	}
}

func TestDuplicateKeepsCheapest(t *testing.T) {
	db := buildDB(t, "900\tduke\texpensive!%s\n500\tduke\tduke!%s\n")
	e, _ := db.Lookup("duke")
	if e.Cost != 500 || e.Route != "duke!%s" {
		t.Errorf("dedup kept %+v", e)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestResolveExact(t *testing.T) {
	db := buildDB(t, "duke\tduke!%s\n")
	r, err := db.Resolve("duke", "honey")
	if err != nil {
		t.Fatal(err)
	}
	if r.Address() != "duke!honey" {
		t.Errorf("Address = %q", r.Address())
	}
	if r.ViaSuffix || r.Matched != "duke" {
		t.Errorf("resolution = %+v", r)
	}
}

// TestResolveDomainSuffix reproduces the paper's worked example: routing
// to caip.rutgers.edu!pleasant when only .edu is in the database produces
// seismo!caip.rutgers.edu!pleasant.
func TestResolveDomainSuffix(t *testing.T) {
	db := buildDB(t, ".edu\tseismo!%s\n")
	r, err := db.Resolve("caip.rutgers.edu", "pleasant")
	if err != nil {
		t.Fatal(err)
	}
	if !r.ViaSuffix || r.Matched != ".edu" {
		t.Errorf("resolution = %+v", r)
	}
	if got := r.Address(); got != "seismo!caip.rutgers.edu!pleasant" {
		t.Errorf("Address = %q want seismo!caip.rutgers.edu!pleasant", got)
	}
}

func TestResolvePrefersLongestSuffix(t *testing.T) {
	// .rutgers.edu is searched before .edu.
	db := buildDB(t, ".edu\tseismo!%s\n.rutgers.edu\tcaip!%s\n")
	r, err := db.Resolve("blue.rutgers.edu", "user")
	if err != nil {
		t.Fatal(err)
	}
	if r.Matched != ".rutgers.edu" {
		t.Errorf("matched %q, want .rutgers.edu", r.Matched)
	}
	if got := r.Address(); got != "caip!blue.rutgers.edu!user" {
		t.Errorf("Address = %q", got)
	}
}

func TestResolveExactBeatsSuffix(t *testing.T) {
	db := buildDB(t, ".edu\tseismo!%s\ncaip.rutgers.edu\tdirect!caip.rutgers.edu!%s\n")
	r, err := db.Resolve("caip.rutgers.edu", "user")
	if err != nil {
		t.Fatal(err)
	}
	if r.ViaSuffix {
		t.Error("suffix search used despite exact match")
	}
	if got := r.Address(); got != "direct!caip.rutgers.edu!user" {
		t.Errorf("Address = %q", got)
	}
}

func TestResolveNoRoute(t *testing.T) {
	db := buildDB(t, "duke\tduke!%s\n")
	if _, err := db.Resolve("unknown.host.arpa", "u"); err == nil {
		t.Error("Resolve of unroutable host succeeded")
	}
	if _, err := db.Resolve("plainhost", "u"); err == nil {
		t.Error("Resolve of unknown plain host succeeded")
	}
}

func TestResolveRightSyntaxRoute(t *testing.T) {
	db := buildDB(t, "mit-ai\tduke!research!ucbvax!%s@mit-ai\n")
	r, err := db.Resolve("mit-ai", "honey")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Address(); got != "duke!research!ucbvax!honey@mit-ai" {
		t.Errorf("Address = %q", got)
	}
}

func TestBuildFromPrinterEntries(t *testing.T) {
	entries := []printer.Entry{
		{Host: "z", Route: "z!%s", Cost: 30},
		{Host: "a", Route: "a!%s", Cost: 10},
	}
	db := BuildWith(entries, Options{})
	if db.Len() != 2 {
		t.Fatalf("Len = %d", db.Len())
	}
	es := db.Entries()
	if es[0].Host != "a" || es[1].Host != "z" {
		t.Errorf("not sorted: %v", es)
	}
}

// TestBuildWithNeverWritesInput: BuildWith leaves its argument
// byte-identical whether it indexes it in place (canonical input) or
// copies it first (unsorted, duplicate, trailing-dot or upper-case
// names under FoldCase), and answers from the canonical names.
func TestBuildWithNeverWritesInput(t *testing.T) {
	for _, tc := range []struct {
		name    string
		entries []Entry
		opts    Options
		want    []string // the database's names, in order
	}{
		{"canonical", []Entry{{Host: ".edu", Route: "s!%s"}, {Host: "a", Route: "a!%s"}}, Options{}, []string{".edu", "a"}},
		{"unsorted", []Entry{{Host: "z", Route: "z!%s"}, {Host: "a", Route: "a!%s"}}, Options{}, []string{"a", "z"}},
		{"duplicates", []Entry{{Host: "a", Route: "b!a!%s", Cost: 9}, {Host: "a", Route: "a!%s", Cost: 1}}, Options{}, []string{"a"}},
		{"trailing dot", []Entry{{Host: "a.", Route: "a!%s"}, {Host: "b", Route: "b!%s"}}, Options{}, []string{"a", "b"}},
		{"upper case folded", []Entry{{Host: "A", Route: "a!%s"}, {Host: "b", Route: "b!%s"}}, Options{FoldCase: true}, []string{"a", "b"}},
	} {
		orig := append([]Entry(nil), tc.entries...)
		db := BuildWith(tc.entries, tc.opts)
		for i := range orig {
			if tc.entries[i] != orig[i] {
				t.Fatalf("%s: BuildWith wrote entry %d: %+v, was %+v", tc.name, i, tc.entries[i], orig[i])
			}
		}
		var got []string
		for _, e := range db.Entries() {
			got = append(got, e.Host)
			if _, ok := db.Lookup(e.Host); !ok {
				t.Errorf("%s: Lookup(%q) misses", tc.name, e.Host)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: names %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	db := buildDB(t, "500\tduke\tduke!%s\n3395\tmit-ai\tduke!%s@mit-ai\n0\tunc\t%s\n")
	var sb strings.Builder
	if _, err := db.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != db.Len() {
		t.Fatalf("round-trip Len %d != %d", db2.Len(), db.Len())
	}
	for _, e := range db.Entries() {
		e2, ok := db2.Lookup(e.Host)
		if !ok || e2 != e {
			t.Errorf("round-trip entry %v != %v", e2, e)
		}
	}
}

// TestWriteTextRoundTrip: LoadWith reads back exactly the entries
// WriteText wrote, in both of pathalias's formats, over a generated
// map's routes.
func TestWriteTextRoundTrip(t *testing.T) {
	inputs, local := mapgen.Generate(mapgen.Scaled(2000, 5))
	rep, err := core.Run(core.Config{LocalHost: local}, inputs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, costs := range []bool{false, true} {
		want := rep.Entries
		if !costs {
			want = make([]Entry, len(rep.Entries))
			for i, e := range rep.Entries {
				e.Cost = 0
				want[i] = e
			}
		}
		var buf bytes.Buffer
		n, err := WriteText(&buf, rep.Entries, costs)
		if err != nil || n != int64(buf.Len()) {
			t.Fatalf("costs=%v: WriteText = %d, %v; buffered %d bytes", costs, n, err, buf.Len())
		}
		db, err := LoadWith(&buf, Options{})
		if err != nil {
			t.Fatalf("costs=%v: %v", costs, err)
		}
		if got := db.Entries(); !slices.Equal(got, BuildWith(want, Options{}).Entries()) {
			t.Errorf("costs=%v: %d entries read back differ from the %d written", costs, len(got), len(want))
		}
	}
}

// Property: Lookup agrees with linear search over arbitrary entry sets.
func TestLookupMatchesLinearScan(t *testing.T) {
	f := func(keys []uint16, probe uint16) bool {
		var es []printer.Entry
		for _, k := range keys {
			es = append(es, printer.Entry{
				Host:  fmt.Sprintf("h%d", k%512),
				Route: fmt.Sprintf("h%d!%%s", k%512),
				Cost:  10,
			})
		}
		db := BuildWith(es, Options{})
		target := fmt.Sprintf("h%d", probe%512)
		_, got := db.Lookup(target)
		want := false
		for _, e := range es {
			if e.Host == target {
				want = true
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: entries are always sorted and unique after BuildWith.
func TestBuildInvariants(t *testing.T) {
	f := func(keys []uint8) bool {
		var es []printer.Entry
		for i, k := range keys {
			es = append(es, printer.Entry{
				Host:  fmt.Sprintf("h%d", k%64),
				Route: "r!%s",
				Cost:  cost.Cost(i),
			})
		}
		db := BuildWith(es, Options{})
		names := make([]string, 0, db.Len())
		for _, e := range db.Entries() {
			names = append(names, e.Host)
		}
		if !sort.StringsAreSorted(names) {
			return false
		}
		seen := map[string]bool{}
		for _, n := range names {
			if seen[n] {
				return false
			}
			seen[n] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
