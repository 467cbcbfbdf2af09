package pathalias

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"pathalias/internal/core"
	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
	"pathalias/internal/routedb"
)

// editMapRoutes are the default-vantage routes of the 50k-core-host map
// the edit benchmark serves (mapgen.Scaled(50000, 1), ~77k routes),
// computed once per test binary.
var editMapRoutes = sync.OnceValues(func() ([]printer.Entry, error) {
	inputs, local := mapgen.Generate(mapgen.Scaled(50000, 1))
	res, err := parser.Parse(inputs...)
	if err != nil {
		return nil, err
	}
	src, _ := res.Graph.Lookup(local)
	mres, err := mapper.Run(res.Graph, src, mapper.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return printer.Routes(mres, printer.Options{}), nil
})

// BenchmarkRouteIndex measures what one re-map costs per route table
// after the routes are computed: indexing them into a serving store
// (routedb.BuildWith, or DB.With over the previous store when no host
// name moved), compiling that store into an rdb image
// (DB.WriteBinary), and validating the image at open
// (routedb.OpenBinaryBytes). Recorded in BENCH_map.json.
func BenchmarkRouteIndex(b *testing.B) {
	entries, err := editMapRoutes()
	if err != nil {
		b.Fatal(err)
	}
	db := routedb.BuildWith(entries, routedb.Options{})
	var img bytes.Buffer
	if _, err := db.WriteBinary(&img); err != nil {
		b.Fatal(err)
	}

	b.Run("BuildWith", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			routedb.BuildWith(entries, routedb.Options{})
		}
	})
	b.Run("With", func(b *testing.B) {
		moved := movedRoutes(entries)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.With(moved, routedb.Options{})
		}
	})
	b.Run("WriteBinary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.WriteBinary(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("OpenBinaryBytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := routedb.OpenBinaryBytes(img.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBuildWithAllocs guards that a route store indexes the pipeline's
// routes in place: on the 50k edit map (~77k routes) building one
// allocates only its slot table and suffix trie, under maxBuildBytes.
// A copy of the entries alone would add ~3.7 MB. The routes come from
// the engine's printer, from core.Run under the configuration
// `pathalias -c` builds (-c orders only the text it writes, so its
// image build must not copy and re-sort), and from a library Result
// listed by cost. It compares allocated bytes, not times, so a loaded
// machine cannot flake it.
func TestBuildWithAllocs(t *testing.T) {
	const maxBuildBytes = 3 << 19 // 1.5 MB
	printed, err := editMapRoutes()
	if err != nil {
		t.Fatal(err)
	}
	inputs, local := mapgen.Generate(mapgen.Scaled(50000, 1))
	mopts := mapper.DefaultOptions()
	rep, err := core.Run(core.Config{LocalHost: local, Mapper: &mopts}, inputs...)
	if err != nil {
		t.Fatal(err)
	}
	res := buildResult(Options{LocalHost: local, PrintCosts: true, SortByCost: true}, rep)
	for _, src := range []struct {
		name  string
		build func()
	}{
		{"printer", func() { routedb.BuildWith(printed, routedb.Options{}) }},
		{"core.Run", func() { routedb.BuildWith(rep.Entries, routedb.Options{}) }},
		{"Result.NewDatabase", func() { res.NewDatabase() }},
	} {
		t.Run(src.name, func(t *testing.T) {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					src.build()
				}
			})
			got := r.AllocedBytesPerOp()
			t.Logf("store over %d routes: %d B/op", len(rep.Entries), got)
			if got >= maxBuildBytes {
				t.Errorf("store build allocates %d B/op over %d routes, at or over %d: it copies the entries", got, len(rep.Entries), maxBuildBytes)
			}
		})
	}
}

// movedRoutes returns a copy of entries with every route and cost
// changed and the host column kept: what a re-map that moved routes
// but no host name hands the stores.
func movedRoutes(entries []printer.Entry) []printer.Entry {
	out := make([]printer.Entry, len(entries))
	for i, e := range entries {
		out[i] = printer.Entry{Host: e.Host, Route: "x!" + e.Route, Cost: e.Cost + 1}
	}
	return out
}

// TestWithAllocs guards the store rebuild of a route-only edit: on the
// 50k edit map (~77k routes), DB.With over the previous store with the
// host column unchanged shares its slot table and suffix trie and
// allocates under maxWithBytes, where an index build takes ~1 MB. The
// new store answers and compiles exactly as BuildWith's. It compares
// allocated bytes, not times, so a loaded machine cannot flake it.
func TestWithAllocs(t *testing.T) {
	const maxWithBytes = 64 << 10
	entries, err := editMapRoutes()
	if err != nil {
		t.Fatal(err)
	}
	prev := routedb.BuildWith(entries, routedb.Options{})
	moved := movedRoutes(entries)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			prev.With(moved, routedb.Options{})
		}
	})
	got := r.AllocedBytesPerOp()
	t.Logf("With over %d routes, host column unchanged: %d B/op", len(entries), got)
	if got >= maxWithBytes {
		t.Errorf("With allocates %d B/op over an unchanged host column of %d routes, at or over %d: it rebuilt the index", got, len(entries), maxWithBytes)
	}
	var a, b bytes.Buffer
	if _, err := prev.With(moved, routedb.Options{}).WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := routedb.BuildWith(moved, routedb.Options{}).WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("the image of a store built With the previous one differs from BuildWith's")
	}
}
