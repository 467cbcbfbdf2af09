package pathalias

// Cold start: the serving-side metric the compiled route store
// (internal/rdb, ISSUE 5) exists for. A routed process pointed at the
// linear text file must parse and index every route before it can
// answer its first lookup; pointed at the compiled file it maps,
// checksums, validates, and answers. BenchmarkColdStart measures both
// paths on the routes of a 200k-host mapgen map; the equivalence test
// pins the two stores to byte-identical answers for every host, and
// TestColdStartSpeedup enforces the >=10x acceptance bar.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
	"pathalias/internal/rdb"
	"pathalias/internal/routedb"
)

// coldStart is the shared 200k-host fixture: computing real routes at
// that scale costs a few seconds, so the benchmark and both tests
// build it once per test binary.
var coldStart struct {
	once  sync.Once
	err   error
	text  []byte // linear route file, "cost\thost\troute" lines
	img   []byte // the same database compiled to the rdb image
	probe string // a host for the first post-open lookup
}

func coldStartFixture(tb testing.TB) (text, img []byte, probe string) {
	tb.Helper()
	coldStart.once.Do(func() {
		inputs, local := mapgen.Generate(mapgen.Scaled(200000, 18))
		res, err := parser.Parse(inputs...)
		if err != nil {
			coldStart.err = err
			return
		}
		src, _ := res.Graph.Lookup(local)
		mres, err := mapper.Run(res.Graph, src, mapper.DefaultOptions())
		if err != nil {
			coldStart.err = err
			return
		}
		entries := printer.Routes(mres, printer.Options{})
		var buf bytes.Buffer
		for _, e := range entries {
			fmt.Fprintf(&buf, "%d\t%s\t%s\n", int64(e.Cost), e.Host, e.Route)
		}
		coldStart.text = buf.Bytes()
		db, err := routedb.Load(bytes.NewReader(coldStart.text))
		if err != nil {
			coldStart.err = err
			return
		}
		var img bytes.Buffer
		if _, err := db.WriteBinary(&img); err != nil {
			coldStart.err = err
			return
		}
		coldStart.img = img.Bytes()
		coldStart.probe = entries[len(entries)/2].Host
	})
	if coldStart.err != nil {
		tb.Fatal(coldStart.err)
	}
	return coldStart.text, coldStart.img, coldStart.probe
}

// coldStartFile materializes the compiled image on disk.
func coldStartFile(tb testing.TB) string {
	tb.Helper()
	_, img, _ := coldStartFixture(tb)
	path := filepath.Join(tb.TempDir(), "routes.rdb")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// coldStartTextFile materializes the linear text file on disk.
func coldStartTextFile(tb testing.TB) string {
	tb.Helper()
	text, _, _ := coldStartFixture(tb)
	path := filepath.Join(tb.TempDir(), "routes.db")
	if err := os.WriteFile(path, text, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// BenchmarkColdStart measures exec-to-first-answer for both database
// formats at 200k-host scale: parse+index+lookup for the text file,
// open(mmap+checksum+validate)+lookup for the compiled one. Recorded
// in BENCH_map.json.
func BenchmarkColdStart(b *testing.B) {
	text, _, probe := coldStartFixture(b)
	path := coldStartFile(b)

	b.Run("text/hosts200000", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db, err := routedb.Load(bytes.NewReader(text))
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := db.Lookup(probe); !ok {
				b.Fatal("probe host missing")
			}
		}
	})

	b.Run("rdb/hosts200000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db, err := routedb.OpenBinary(path)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := db.Lookup(probe); !ok {
				b.Fatal("probe host missing")
			}
			db.Close()
		}
	})
}

// TestColdStartEquivalence is the acceptance gate: on the 200k-host
// map, every host's lookup through the compiled database must be
// byte-identical to the text-built store's answer (and a resolve
// sample must agree on suffix handling and misses).
func TestColdStartEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-host fixture; small-scale equivalence is covered in internal/routedb and cmd/mkdb")
	}
	text, img, _ := coldStartFixture(t)
	want, err := routedb.Load(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	got, err := routedb.OpenBinaryBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d want %d", got.Len(), want.Len())
	}
	mismatches := 0
	for _, e := range want.Entries() {
		ge, ok := got.Lookup(e.Host)
		if !ok || ge != e {
			t.Errorf("Lookup(%q) = %+v,%v want %+v", e.Host, ge, ok, e)
			if mismatches++; mismatches > 20 {
				t.Fatal("too many mismatches")
			}
		}
	}
	for i, dest := range []string{"no.such.host", "x.dom0.net", "host1.dom3.net"} {
		wr, werr := want.Resolve(dest, "user")
		gr, gerr := got.Resolve(dest, "user")
		if (werr == nil) != (gerr == nil) || wr != gr {
			t.Errorf("resolve sample %d (%q): %+v,%v want %+v,%v", i, dest, gr, gerr, wr, werr)
		}
	}
}

// TestColdStartSpeedup enforces the acceptance bar: a routed -db
// process must answer its first lookup on the compiled 200k-host
// database at least 10x faster than the text cold start. Each side
// performs exactly what routed's reload does — text: read the file,
// stat it, parse, index, look up (the watcher's byte compare has no
// previous read to compare with on a cold start); binary: stat, read
// the footer checksum, open (mmap + checksum + validate), look up. The
// real ratio is recorded in BENCH_map.json.
func TestColdStartSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock assertion")
	}
	_, _, probe := coldStartFixture(t)
	textPath := coldStartTextFile(t)
	rdbPath := coldStartFile(t)

	textStart := func() {
		data, err := os.ReadFile(textPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(textPath); err != nil {
			t.Fatal(err)
		}
		db, err := routedb.Load(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := db.Lookup(probe); !ok {
			t.Fatal("probe host missing")
		}
	}
	rdbStart := func() {
		if _, err := os.Stat(rdbPath); err != nil {
			t.Fatal(err)
		}
		if _, err := rdb.FileChecksum(rdbPath); err != nil {
			t.Fatal(err)
		}
		db, err := routedb.OpenBinary(rdbPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := db.Lookup(probe); !ok {
			t.Fatal("probe host missing")
		}
		db.Close()
	}
	// Interleaved rounds, so a burst of machine noise lands on both
	// sides; each side's minimum is its least-disturbed run. Every start
	// begins from a collected heap, so neither pays for the garbage the
	// other left behind, and both run on one P: otherwise the text
	// side's concurrent GC is free or not depending on whether another
	// core happens to be idle, and the ratio swings with the machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 7
	timeIt := func(start func()) time.Duration {
		runtime.GC()
		mark := time.Now()
		start()
		return time.Since(mark)
	}
	textTime, rdbTime := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		textTime = min(textTime, timeIt(textStart))
		rdbTime = min(rdbTime, timeIt(rdbStart))
	}

	ratio := float64(textTime) / float64(rdbTime)
	t.Logf("cold start: text %v, rdb %v (%.1fx)", textTime, rdbTime, ratio)
	if ratio < 10 {
		t.Errorf("compiled cold start only %.1fx faster than text (want >= 10x): text %v, rdb %v",
			ratio, textTime, rdbTime)
	}
}
