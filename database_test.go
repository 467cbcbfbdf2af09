package pathalias

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const dbTestMap = `unc	duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), research(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND)
ucbvax	research(DAILY)
.edu	= {caip.rutgers.edu}
research	.edu(DEMAND)
`

func dbTestDatabase(t *testing.T) *Database {
	t.Helper()
	res, err := RunString(Options{LocalHost: "unc"}, dbTestMap)
	if err != nil {
		t.Fatal(err)
	}
	return res.NewDatabase()
}

func TestResolveBatchGolden(t *testing.T) {
	db := dbTestDatabase(t)
	dests := []string{
		"duke",             // exact
		"mit.edu",          // domain suffix via .edu
		"nowhere",          // miss
		"research",         // exact, deeper
		"caip.rutgers.edu", // exact (domain member)
	}
	got := db.ResolveBatch("honey", dests)
	want := []struct {
		addr  string
		isErr bool
	}{
		{"duke!honey", false},
		{"duke!research!mit.edu!honey", false},
		{"", true},
		{"duke!research!honey", false},
		{"duke!research!caip.rutgers.edu!honey", false},
	}
	if len(got) != len(dests) {
		t.Fatalf("got %d results for %d dests", len(got), len(dests))
	}
	for i, w := range want {
		if got[i].Dest != dests[i] {
			t.Errorf("[%d] Dest = %q, want %q", i, got[i].Dest, dests[i])
		}
		if (got[i].Err != nil) != w.isErr {
			t.Errorf("[%d] Err = %v, want error %v", i, got[i].Err, w.isErr)
		}
		if got[i].Address != w.addr {
			t.Errorf("[%d] Address = %q, want %q", i, got[i].Address, w.addr)
		}
	}
	// Batch results agree with one-at-a-time Resolve.
	for _, dest := range dests {
		addr, err := db.Resolve(dest, "honey")
		br := db.ResolveBatch("honey", []string{dest})[0]
		if br.Address != addr || (br.Err != nil) != (err != nil) {
			t.Errorf("batch/single mismatch for %q: %+v vs %q, %v", dest, br, addr, err)
		}
	}
}

// The parallel path must produce byte-identical output to the serial
// path, in order, for batches past the fan-out threshold.
func TestResolveBatchLargeMatchesSerial(t *testing.T) {
	db := dbTestDatabase(t)
	var dests []string
	pool := []string{"duke", "phs", "x.edu", "deep.sub.edu", "missing", "ucbvax", "research"}
	for i := 0; i < 4*resolveBatchParallelMin; i++ {
		dests = append(dests, pool[i%len(pool)])
	}
	got := db.ResolveBatch("u", dests)
	for i, dest := range dests {
		addr, err := db.Resolve(dest, "u")
		if got[i].Dest != dest || got[i].Address != addr || (got[i].Err == nil) != (err == nil) {
			t.Fatalf("[%d] %q: batch %+v, single %q %v", i, dest, got[i], addr, err)
		}
	}
}

func TestDatabaseStats(t *testing.T) {
	db := dbTestDatabase(t)
	db.Lookup("duke")
	db.ResolveBatch("u", []string{"duke", "far.away.edu", "missing"})
	s := db.Stats()
	if s.Lookups != 1 || s.Resolves != 3 || s.Hits != 1 || s.SuffixHits != 1 || s.Misses != 1 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestDatabaseIgnoreCaseFolding(t *testing.T) {
	res, err := RunString(Options{LocalHost: "unc", IgnoreCase: true},
		"unc\tDuke(HOURLY)\nDuke\tunc(DEMAND)\n")
	if err != nil {
		t.Fatal(err)
	}
	db := res.NewDatabase()
	if _, ok := db.Lookup("DUKE"); !ok {
		t.Error("IgnoreCase database missed DUKE")
	}
	if _, err := db.Resolve("dUkE", "u"); err != nil {
		t.Errorf("IgnoreCase Resolve: %v", err)
	}
	// Result.Lookup folds too.
	if _, ok := res.Lookup("DUKE"); !ok {
		t.Error("IgnoreCase Result.Lookup missed DUKE")
	}
}

// TestResultLookupMatchesDatabase: Result.Lookup normalizes a query as
// the Database built from the same result does (one trailing dot
// dropped, case folded under IgnoreCase, non-ASCII names included), so
// the two answer every exact query alike.
func TestResultLookupMatchesDatabase(t *testing.T) {
	const src = "unc\tduke(HOURLY), Zürich(DAILY)\nduke\tunc(DEMAND)\n"
	queries := []string{"duke", "duke.", "DUKE", "DUKE.", "Zürich", "Zürich.", "zürich", "ZÜRICH", "nowhere", "."}
	for _, fold := range []bool{false, true} {
		res, err := RunString(Options{LocalHost: "unc", IgnoreCase: fold}, src)
		if err != nil {
			t.Fatal(err)
		}
		db := res.NewDatabase()
		for _, q := range queries {
			got, gotOK := res.Lookup(q)
			want, wantOK := db.Lookup(q)
			if got != want || gotOK != wantOK {
				t.Errorf("IgnoreCase=%v: Result.Lookup(%q) = %+v, %v; Database.Lookup = %+v, %v", fold, q, got, gotOK, want, wantOK)
			}
		}
		for _, q := range []string{"duke.", "Zürich."} {
			if _, ok := res.Lookup(q); !ok {
				t.Errorf("IgnoreCase=%v: Result.Lookup missed %q", fold, q)
			}
		}
	}
}

// Result.Lookup's lazy index and the Database are safe for concurrent
// first use (run under -race).
func TestConcurrentResultAndDatabase(t *testing.T) {
	var src strings.Builder
	src.WriteString("hub h0(10)\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&src, "hub\th%d(HOURLY)\n", i)
	}
	res, err := RunString(Options{LocalHost: "hub"}, src.String())
	if err != nil {
		t.Fatal(err)
	}
	db := res.NewDatabase()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				host := fmt.Sprintf("h%d", (g*37+i)%300)
				if _, ok := res.Lookup(host); !ok {
					t.Errorf("Result.Lookup(%q) missed", host)
					return
				}
				if _, ok := db.Lookup(host); !ok {
					t.Errorf("Database.Lookup(%q) missed", host)
					return
				}
				if _, err := db.Resolve(host, "u"); err != nil {
					t.Errorf("Resolve(%q): %v", host, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWriteDBAndOpenDatabase locks the public compiled-store API: a
// run's routes written with WriteDB open through OpenDatabase (format
// auto-detected) and answer identically to the in-memory database;
// the same path opens linear text files too.
func TestWriteDBAndOpenDatabase(t *testing.T) {
	res, err := RunString(Options{LocalHost: "unc"}, dbTestMap)
	if err != nil {
		t.Fatal(err)
	}
	want := res.NewDatabase()
	dir := t.TempDir()

	rdbPath := filepath.Join(dir, "routes.rdb")
	f, err := os.Create(rdbPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteDB(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	txtPath := filepath.Join(dir, "routes.db")
	tf, err := os.Create(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	res.opts.PrintCosts = true
	if err := res.WriteRoutes(tf); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{rdbPath, txtPath} {
		got, err := OpenDatabase(path)
		if err != nil {
			t.Fatalf("OpenDatabase(%s): %v", path, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: Len = %d want %d", path, got.Len(), want.Len())
		}
		for _, rt := range res.Routes {
			ge, ok := got.Lookup(rt.Host)
			we, _ := want.Lookup(rt.Host)
			if !ok || ge != we {
				t.Errorf("%s: Lookup(%q) = %+v,%v want %+v", path, rt.Host, ge, ok, we)
			}
		}
		gr, gerr := got.Resolve("caip.rutgers.edu", "pleasant")
		wr, werr := want.Resolve("caip.rutgers.edu", "pleasant")
		if (gerr == nil) != (werr == nil) || gr != wr {
			t.Errorf("%s: suffix resolve = %q,%v want %q,%v", path, gr, gerr, wr, werr)
		}
		if err := got.Close(); err != nil { // releases the mapping; no-op for text
			t.Errorf("%s: Close: %v", path, err)
		}
	}
}
