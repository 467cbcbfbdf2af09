package routedb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestStoreServesCurrentDB(t *testing.T) {
	db1 := buildDB(t, "duke\tduke!%s\n")
	s := NewStore(db1)
	if _, ok := s.Lookup("duke"); !ok {
		t.Fatal("store missed duke")
	}
	db2 := buildDB(t, "phs\tduke!phs!%s\n")
	if old := s.Swap(db2); old != db1 {
		t.Errorf("Swap returned %p, want %p", old, db1)
	}
	if _, ok := s.Lookup("duke"); ok {
		t.Error("store still serves the old database")
	}
	if _, ok := s.Lookup("phs"); !ok {
		t.Error("store missed phs after swap")
	}
}

func TestStoreNilSafety(t *testing.T) {
	s := NewStore(nil)
	if s.Len() != 0 {
		t.Errorf("empty store Len = %d", s.Len())
	}
	if _, err := s.Resolve("anything", "u"); err == nil {
		t.Error("empty store resolved a destination")
	}
	var zero Store
	if zero.Len() != 0 {
		t.Errorf("zero-value store Len = %d", zero.Len())
	}
	s.Swap(nil)
	if s.DB() == nil {
		t.Error("Swap(nil) left a nil database")
	}
}

// A live rebuild-and-swap while readers hammer the store: every read must
// see one of the two complete databases, never a torn state. Run under
// -race.
func TestStoreHotSwapUnderConcurrentReaders(t *testing.T) {
	mkdb := func(gen int) *DB {
		var sb strings.Builder
		for i := 0; i < 200; i++ {
			fmt.Fprintf(&sb, "%d\th%d\tgen%d!h%d!%%s\n", 100+i, i, gen, i)
		}
		fmt.Fprintf(&sb, "10\t.edu\tgen%d-gw!%%s\n", gen)
		return buildDB(t, sb.String())
	}
	s := NewStore(mkdb(0))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				host := fmt.Sprintf("h%d", (g+i)%200)
				if e, ok := s.Lookup(host); !ok || !strings.HasPrefix(e.Route, "gen") {
					t.Errorf("Lookup(%q) = %+v, %v", host, e, ok)
					return
				}
				res, err := s.Resolve("caip.rutgers.edu", "u")
				if err != nil || !res.ViaSuffix {
					t.Errorf("Resolve via suffix: %+v, %v", res, err)
					return
				}
				// A consistent multi-query view comes from a snapshot.
				db := s.DB()
				e1, _ := db.Lookup("h0")
				e2, _ := db.Lookup("h199")
				if e1.Route[:4] != e2.Route[:4] {
					t.Errorf("torn snapshot: %q vs %q", e1.Route, e2.Route)
					return
				}
			}
		}(g)
	}
	for gen := 1; gen <= 20; gen++ {
		s.Swap(mkdb(gen))
	}
	close(stop)
	wg.Wait()
	if s.Len() != 201 {
		t.Errorf("final Len = %d", s.Len())
	}
}

// Regression tests for the seed's suffix-walk edge cases.

func TestResolveTrailingDotDestination(t *testing.T) {
	db := buildDB(t, ".edu\tseismo!%s\nduke\tduke!%s\n")
	r, err := db.Resolve("caip.rutgers.edu.", "pleasant")
	if err != nil {
		t.Fatalf("trailing-dot resolve: %v", err)
	}
	if got := r.Address(); got != "seismo!caip.rutgers.edu!pleasant" {
		t.Errorf("Address = %q", got)
	}
	r, err = db.Resolve("duke.", "honey")
	if err != nil || r.Address() != "duke!honey" {
		t.Errorf("exact trailing-dot resolve = %+v, %v", r, err)
	}
}

func TestResolveBareLeadingDotDestination(t *testing.T) {
	db := buildDB(t, ".edu\tseismo!%s\n")
	r, err := db.Resolve(".edu", "pleasant")
	if err != nil {
		t.Fatalf("bare-suffix resolve: %v", err)
	}
	if r.ViaSuffix || r.Address() != "seismo!pleasant" {
		t.Errorf("resolution = %+v", r)
	}
	if _, err := db.Resolve(".com", "u"); err == nil {
		t.Error("unknown bare suffix resolved")
	}
}

func TestResolveFoldCaseDatabase(t *testing.T) {
	// A map computed under -i has folded names; queries in any case must
	// hit when the database is built with FoldCase.
	src := "500\tDuke\tduke!%s\n10\t.EDU\tseismo!%s\n"
	db, err := LoadWith(strings.NewReader(src), Options{FoldCase: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Lookup("dUKe"); !ok {
		t.Error("folded Lookup missed")
	}
	r, err := db.Resolve("CAIP.Rutgers.EDU", "Pleasant")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Address(); got != "seismo!caip.rutgers.edu!Pleasant" {
		t.Errorf("Address = %q", got)
	}
	// The case-sensitive database keeps the seed behavior.
	db2, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Resolve("caip.rutgers.edu", "u"); err == nil {
		t.Error("case-sensitive database matched a folded query")
	}
}

func TestDBStatsSnapshot(t *testing.T) {
	db := buildDB(t, "duke\tduke!%s\n.edu\tseismo!%s\n")
	db.Resolve("duke", "u")
	db.Resolve("x.y.edu", "u")
	db.Resolve("nope", "u")
	s := db.Stats()
	if s.Resolves != 3 || s.Hits != 1 || s.SuffixHits != 1 || s.Misses != 1 {
		t.Errorf("Stats = %+v", s)
	}
}

// TestStoreCompareAndSwap pins the demotion primitive: the rollback
// succeeds only while the faulty database is still current, so a
// newer good swap can never be clobbered by a late-finishing audit.
func TestStoreCompareAndSwap(t *testing.T) {
	good := BuildWith([]Entry{{Host: "a", Route: "a!%s"}}, Options{})
	faulty := BuildWith([]Entry{{Host: "b", Route: "b!%s"}}, Options{})
	newer := BuildWith([]Entry{{Host: "c", Route: "c!%s"}}, Options{})

	s := NewStore(good)
	s.Swap(faulty)
	if !s.CompareAndSwap(faulty, good) {
		t.Fatal("demotion of the current DB failed")
	}
	if s.DB() != good {
		t.Fatal("store not rolled back")
	}

	// Audit finishes late: the faulty DB was already superseded.
	s.Swap(faulty)
	s.Swap(newer)
	if s.CompareAndSwap(faulty, good) {
		t.Fatal("stale demotion clobbered a newer database")
	}
	if s.DB() != newer {
		t.Fatal("newer database lost")
	}

	// nil means the empty database on both sides, like Swap.
	s2 := NewStore(nil)
	if !s2.CompareAndSwap(nil, good) {
		t.Fatal("nil-old CAS against an empty store failed")
	}
	if s2.DB() != good {
		t.Fatal("nil-old CAS did not install the new DB")
	}
}
