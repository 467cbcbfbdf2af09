package pathalias

// Benchmark harness: one benchmark (or benchmark pair) per experiment with
// a performance dimension, as indexed in DESIGN.md §5. Run with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for paper-vs-measured discussion.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"pathalias/internal/arena"
	"pathalias/internal/cost"
	"pathalias/internal/hash"
	"pathalias/internal/lexer"
	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
	"pathalias/internal/remap"
	"pathalias/internal/routedb"
)

// --- E1: cost expression evaluation -----------------------------------

func BenchmarkE1CostExpr(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := cost.Eval("HOURLY*3 + (DIRECT+DEMAND)/2"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: the paper's example map, full pipeline ------------------------

func BenchmarkE4PaperMap(b *testing.B) {
	const src = `unc	duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), research(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND)
ucbvax	research(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunString(Options{LocalHost: "unc"}, src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: clique vs hub representation at growing network sizes ---------

func cliqueMap(n int) string {
	var sb []byte
	sb = append(sb, "local m0(5)\n"...)
	for i := 0; i < n; i++ {
		sb = append(sb, fmt.Sprintf("m%d ", i)...)
		first := true
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if !first {
				sb = append(sb, ", "...)
			}
			sb = append(sb, fmt.Sprintf("m%d(50)", j)...)
			first = false
		}
		sb = append(sb, '\n')
	}
	return string(sb)
}

func hubMap(n int) string {
	var sb []byte
	sb = append(sb, "local m0(5)\nNET = {"...)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb = append(sb, ", "...)
		}
		sb = append(sb, fmt.Sprintf("m%d", i)...)
	}
	sb = append(sb, "}(50)\n"...)
	return string(sb)
}

func benchPipeline(b *testing.B, src string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunString(Options{LocalHost: "local"}, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5CliqueVsHub(b *testing.B) {
	for _, n := range []int{50, 200, 500} {
		b.Run(fmt.Sprintf("clique-%d", n), func(b *testing.B) { benchPipeline(b, cliqueMap(n)) })
		b.Run(fmt.Sprintf("hub-%d", n), func(b *testing.B) { benchPipeline(b, hubMap(n)) })
	}
}

// --- E8: hand scanner vs lex-style scanner on full-scale map text ------

func scannerInput() []byte {
	inputs, _ := mapgen.Generate(mapgen.Default1986())
	return []byte(inputs[0].Src + inputs[1].Src)
}

func BenchmarkE8HandScanner(b *testing.B) {
	src := scannerInput()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := lexer.NewScanner("bench", src)
		for {
			tok, err := s.Next()
			if err != nil {
				b.Fatal(err)
			}
			if tok.Kind == lexer.EOF {
				break
			}
		}
	}
}

func BenchmarkE8SlowScanner(b *testing.B) {
	src := scannerInput()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := lexer.NewSlowScanner("bench", src)
		for {
			tok, err := s.Next()
			if err != nil {
				b.Fatal(err)
			}
			if tok.Kind == lexer.EOF {
				break
			}
		}
	}
}

// --- E9: allocation strategies under the parse-phase burst -------------

type benchNode struct {
	name  string
	id    int
	next  *benchNode
	cost  int64
	flags uint32
}

const e9Burst = 28500 // ≈ the paper's node+link allocation volume

func BenchmarkE9Arena(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := arena.NewPool[benchNode](arena.DefaultSlabSize)
		var head *benchNode
		for j := 0; j < e9Burst; j++ {
			n := p.New()
			n.id = j
			n.next = head
			head = n
		}
		if head == nil {
			b.Fatal("empty")
		}
	}
}

func BenchmarkE9NaiveAlloc(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var head *benchNode
		for j := 0; j < e9Burst; j++ {
			n := new(benchNode)
			n.id = j
			n.next = head
			head = n
		}
		if head == nil {
			b.Fatal("empty")
		}
	}
}

func BenchmarkE9FreeList(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var f arena.FreeList[benchNode]
		var head *benchNode
		for j := 0; j < e9Burst; j++ {
			n := f.New()
			n.id = j
			n.next = head
			head = n
		}
		if head == nil {
			b.Fatal("empty")
		}
	}
}

// --- E10: hash table design choices ------------------------------------

func e10Keys() []string {
	keys := make([]string, 8500)
	for i := range keys {
		keys[i] = fmt.Sprintf("site%d.grp%d", i, i%131)
	}
	return keys
}

func benchHash(b *testing.B, sv hash.SecondaryVariant, gp hash.GrowthPolicy) {
	keys := e10Keys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := hash.NewWith[int](sv, gp)
		for j, k := range keys {
			tab.Insert(k, j)
		}
		for _, k := range keys {
			if _, ok := tab.Lookup(k); !ok {
				b.Fatal("lost key")
			}
		}
	}
}

func BenchmarkE10HashInverseFib(b *testing.B) {
	benchHash(b, hash.SecondaryInverse, hash.GrowFibonacci)
}
func BenchmarkE10HashKnuthFib(b *testing.B) {
	benchHash(b, hash.SecondaryKnuth, hash.GrowFibonacci)
}
func BenchmarkE10HashInverseDoubling(b *testing.B) {
	benchHash(b, hash.SecondaryInverse, hash.GrowDoubling)
}
func BenchmarkE10HashInverseLowWater(b *testing.B) {
	benchHash(b, hash.SecondaryInverse, hash.GrowLowWater)
}
func BenchmarkE10GoMapBaseline(b *testing.B) {
	keys := e10Keys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := make(map[string]int)
		for j, k := range keys {
			m[k] = j
		}
		for _, k := range keys {
			if _, ok := m[k]; !ok {
				b.Fatal("lost key")
			}
		}
	}
}

// --- E11: heap vs O(v²) Dijkstra across graph sizes ---------------------

func e11Graph(b *testing.B, n int) (*parser.Result, string) {
	b.Helper()
	inputs, local := mapgen.Generate(mapgen.Scaled(n, int64(n)))
	res, err := parser.Parse(inputs...)
	if err != nil {
		b.Fatal(err)
	}
	return res, local
}

func BenchmarkE11HeapDijkstra(b *testing.B) {
	for _, n := range []int{500, 2000, 8500} {
		b.Run(fmt.Sprintf("v%d", n), func(b *testing.B) {
			res, local := e11Graph(b, n)
			src, _ := res.Graph.Lookup(local)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mapper.Run(res.Graph, src, mapper.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE11ArrayDijkstra(b *testing.B) {
	for _, n := range []int{500, 2000, 8500} {
		b.Run(fmt.Sprintf("v%d", n), func(b *testing.B) {
			res, local := e11Graph(b, n)
			src, _ := res.Graph.Lookup(local)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mapper.RunArray(res.Graph, src, mapper.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E13 ablation: penalty heuristics on/off at full scale --------------

func BenchmarkE13Heuristics(b *testing.B) {
	inputs, local := mapgen.Generate(mapgen.Default1986())
	res, err := parser.Parse(inputs...)
	if err != nil {
		b.Fatal(err)
	}
	src, _ := res.Graph.Lookup(local)

	configs := []struct {
		name string
		opts mapper.Options
	}{
		{"all-on", mapper.DefaultOptions()},
		{"no-penalties", func() mapper.Options {
			o := mapper.DefaultOptions()
			o.MixedPenalty, o.GatewayPenalty, o.DomainRelayPenalty = 0, 0, 0
			return o
		}()},
		{"second-best", func() mapper.Options {
			o := mapper.DefaultOptions()
			o.SecondBest = true
			return o
		}()},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mapper.Run(res.Graph, src, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E17: the full pipeline at 1986 scale, by phase ----------------------

func BenchmarkE17FullPipeline(b *testing.B) {
	inputs, local := mapgen.Generate(mapgen.Default1986())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := parser.Parse(inputs...)
		if err != nil {
			b.Fatal(err)
		}
		src, _ := res.Graph.Lookup(local)
		mres, err := mapper.Run(res.Graph, src, mapper.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if entries := printer.Routes(mres, printer.Options{}); len(entries) < 8000 {
			b.Fatalf("only %d routes", len(entries))
		}
	}
}

func BenchmarkE17ParsePhase(b *testing.B) {
	inputs, _ := mapgen.Generate(mapgen.Default1986())
	total := 0
	for _, in := range inputs {
		total += len(in.Src)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(inputs...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE17MapPhase(b *testing.B) {
	inputs, local := mapgen.Generate(mapgen.Default1986())
	res, err := parser.Parse(inputs...)
	if err != nil {
		b.Fatal(err)
	}
	src, _ := res.Graph.Lookup(local)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.Run(res.Graph, src, mapper.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE17PrintPhase(b *testing.B) {
	inputs, local := mapgen.Generate(mapgen.Default1986())
	res, err := parser.Parse(inputs...)
	if err != nil {
		b.Fatal(err)
	}
	src, _ := res.Graph.Lookup(local)
	mres, err := mapper.Run(res.Graph, src, mapper.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if entries := printer.Routes(mres, printer.Options{}); len(entries) < 8000 {
			b.Fatalf("only %d routes", len(entries))
		}
	}
}

// --- E18: the serving layer — route retrieval on a 50k-host database ----
//
// The retrieval side of the paper ("rapid database retrieval") at modern
// scale: a route database built from a mapgen 50k-core-host map, queried
// through the resolver's exact hash index and domain-suffix trie.

var e18 struct {
	once   sync.Once
	err    error // setup failure, reported by every E18 benchmark
	db     *routedb.DB
	exact  []string // known host names, sampled across the database
	suffix []string // destinations that resolve via the suffix trie
	miss   []string // destinations with no route
}

func e18DB(b *testing.B) {
	e18.once.Do(func() {
		inputs, local := mapgen.Generate(mapgen.Scaled(50000, 18))
		res, err := parser.Parse(inputs...)
		if err != nil {
			e18.err = err
			return
		}
		src, _ := res.Graph.Lookup(local)
		mres, err := mapper.Run(res.Graph, src, mapper.DefaultOptions())
		if err != nil {
			e18.err = err
			return
		}
		db := routedb.BuildWith(printer.Routes(mres, printer.Options{}), routedb.Options{})
		if db.Len() < 50000 {
			e18.err = fmt.Errorf("only %d routes in the E18 database", db.Len())
			return
		}
		var exact, suffix, miss []string
		for i, e := range db.Entries() {
			if i%97 == 0 && e.Host[0] != '.' {
				exact = append(exact, e.Host)
			}
			if e.Host[0] == '.' && len(suffix) < 256 {
				suffix = append(suffix, "relay"+fmt.Sprint(len(suffix))+".deep"+e.Host)
			}
		}
		if len(exact) == 0 || len(suffix) == 0 {
			e18.err = fmt.Errorf("E18 database has no exact/suffix query material")
			return
		}
		for i := 0; i < 256; i++ {
			miss = append(miss, fmt.Sprintf("unknown%d.nowhere.invalid", i))
		}
		e18.db, e18.exact, e18.suffix, e18.miss = db, exact, suffix, miss
	})
	if e18.err != nil {
		b.Fatal(e18.err)
	}
}

func BenchmarkE18ResolverExact(b *testing.B) {
	e18DB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dest := e18.exact[i%len(e18.exact)]
		if _, err := e18.db.Resolve(dest, "user"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE18ResolverSuffix(b *testing.B) {
	e18DB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dest := e18.suffix[i%len(e18.suffix)]
		res, err := e18.db.Resolve(dest, "user")
		if err != nil {
			b.Fatal(err)
		}
		if !res.ViaSuffix {
			b.Fatalf("%q resolved without the suffix trie", dest)
		}
	}
}

func BenchmarkE18ResolverMiss(b *testing.B) {
	e18DB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e18.db.Resolve(e18.miss[i%len(e18.miss)], "user"); err == nil {
			b.Fatal("miss query resolved")
		}
	}
}

func BenchmarkE18ResolverParallel(b *testing.B) {
	e18DB(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			switch i % 3 {
			case 0:
				e18.db.Resolve(e18.exact[i%len(e18.exact)], "user")
			case 1:
				e18.db.Resolve(e18.suffix[i%len(e18.suffix)], "user")
			default:
				e18.db.Resolve(e18.miss[i%len(e18.miss)], "user")
			}
			i++
		}
	})
}

func BenchmarkE18ResolveBatch(b *testing.B) {
	e18DB(b)
	dests := make([]string, 4096)
	for i := range dests {
		switch i % 3 {
		case 0:
			dests[i] = e18.exact[i%len(e18.exact)]
		case 1:
			dests[i] = e18.suffix[i%len(e18.suffix)]
		default:
			dests[i] = e18.miss[i%len(e18.miss)]
		}
	}
	db := &Database{db: e18.db}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := db.ResolveBatch("user", dests)
		if len(out) != len(dests) {
			b.Fatal("short batch")
		}
	}
}

// --- Map-construction hot path: parse, map, and end-to-end at modern scale.
//
// These three benchmarks track the build-side perf trajectory (ISSUE 2):
// parse thousands of map statements, run the shortest-path mapper, and
// print routes, on mapgen maps of 50k and 200k core hosts. Results are
// committed to BENCH_map.json after significant changes.

func hotPathInputs(b *testing.B, hosts int) ([]parser.Input, string) {
	b.Helper()
	inputs, local := mapgen.Generate(mapgen.Scaled(hosts, 18))
	return inputs, local
}

func BenchmarkParse(b *testing.B) {
	for _, n := range []int{50000, 200000} {
		b.Run(fmt.Sprintf("hosts%d", n), func(b *testing.B) {
			inputs, _ := hotPathInputs(b, n)
			total := 0
			for _, in := range inputs {
				total += len(in.Src)
			}
			b.SetBytes(int64(total))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := parser.Parse(inputs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMap(b *testing.B) {
	for _, n := range []int{50000, 200000} {
		b.Run(fmt.Sprintf("hosts%d", n), func(b *testing.B) {
			inputs, local := hotPathInputs(b, n)
			res, err := parser.Parse(inputs...)
			if err != nil {
				b.Fatal(err)
			}
			src, _ := res.Graph.Lookup(local)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mapper.Run(res.Graph, src, mapper.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Incremental re-map: a single-file edit on the 50k-host map ---------
//
// BenchmarkRemapDelta/incremental is the engine's warm path: one core
// file's cost edit, re-scanned and re-mapped through the persistent
// engine (ISSUE 3's acceptance metric). BenchmarkRemapDelta/full is the
// same recomputation done the batch way — fresh parse, map, and print —
// which is what every map change cost before the engine existed. The
// ratio is recorded in BENCH_map.json.

func remapDeltaInputs(b *testing.B) ([]remap.Input, []remap.Input, string) {
	b.Helper()
	pins, local := mapgen.Generate(mapgen.Scaled(50000, 18))
	base := make([]remap.Input, len(pins))
	for i, in := range pins {
		base[i] = remap.Input{Name: in.Name, Src: in.Src}
	}
	edited := make([]remap.Input, len(base))
	copy(edited, base)
	const file = 3
	src := strings.Replace(base[file].Src, "(DEMAND)", "(WEEKLY)", 1)
	if src == base[file].Src {
		b.Fatal("benchmark edit found nothing to replace")
	}
	edited[file].Src = src
	return base, edited, local
}

// remapUpdate brings a single-source engine to inputs and returns the
// result from its LocalHost.
func remapUpdate(m *remap.Multi, local string, inputs []remap.Input) (*remap.Result, error) {
	if err := m.Update(inputs); err != nil {
		return nil, err
	}
	return m.ResultFor(local)
}

func BenchmarkRemapDelta(b *testing.B) {
	base, edited, local := remapDeltaInputs(b)

	b.Run("incremental", func(b *testing.B) {
		eng, err := remap.NewMulti(remap.Options{LocalHost: local})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := remapUpdate(eng, local, base); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := base
			if i%2 == 0 {
				in = edited
			}
			res, err := remapUpdate(eng, local, in)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Incremental {
				b.Fatal("update fell off the warm path")
			}
		}
	})

	b.Run("full", func(b *testing.B) {
		pins := make([]parser.Input, len(base))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := base
			if i%2 == 0 {
				in = edited
			}
			for j, r := range in {
				pins[j] = parser.Input{Name: r.Name, Src: r.Src}
			}
			res, err := parser.Parse(pins...)
			if err != nil {
				b.Fatal(err)
			}
			src, _ := res.Graph.Lookup(local)
			mres, err := mapper.Run(res.Graph, src, mapper.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if entries := printer.Routes(mres, printer.Options{}); len(entries) < 50000 {
				b.Fatalf("only %d routes", len(entries))
			}
		}
	})
}

func BenchmarkEndToEnd(b *testing.B) {
	for _, n := range []int{50000, 200000} {
		b.Run(fmt.Sprintf("hosts%d", n), func(b *testing.B) {
			inputs, local := hotPathInputs(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := parser.Parse(inputs...)
				if err != nil {
					b.Fatal(err)
				}
				src, _ := res.Graph.Lookup(local)
				mres, err := mapper.Run(res.Graph, src, mapper.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				if entries := printer.Routes(mres, printer.Options{}); len(entries) < n {
					b.Fatalf("only %d routes", len(entries))
				}
			}
		})
	}
}

// --- Multi-source: 8 vantages over the 50k-host map ---------------------
//
// BenchmarkMultiSource compares the shared multi-source engine against
// the pre-PR deployment shape: N independent single-vantage engines, one
// per vantage point. "build" is the cold cost of standing up all 8
// vantages (shared: one parse + one graph + 8 mapping runs; independent:
// 8 full parses and graphs). "update" is the steady-state cost of one
// core file's cost edit with all 8 vantages resident (shared: one delta
// parse + one graph patch + 8 warm re-maps over one patched snapshot;
// independent: 8 delta parses + 8 graph patches + 8 warm re-maps). The
// ratios are recorded in BENCH_map.json (ISSUE 4's acceptance metric).

func multiSourceVantages(local string) []string {
	vantages := []string{local}
	for i := 1; i < 8; i++ {
		vantages = append(vantages, fmt.Sprintf("host%d", i*6000))
	}
	return vantages
}

func BenchmarkMultiSource(b *testing.B) {
	base, edited, local := remapDeltaInputs(b)
	vantages := multiSourceVantages(local)

	b.Run("build8/shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng, err := remap.NewMulti(remap.Options{LocalHost: local})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Update(base); err != nil {
				b.Fatal(err)
			}
			for _, v := range vantages {
				if _, err := eng.ResultFor(v); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("build8/independent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, v := range vantages {
				eng, err := remap.NewMulti(remap.Options{LocalHost: v})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := remapUpdate(eng, v, base); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("update8/shared", func(b *testing.B) {
		eng, err := remap.NewMulti(remap.Options{LocalHost: local})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Update(base); err != nil {
			b.Fatal(err)
		}
		for _, v := range vantages {
			if _, err := eng.ResultFor(v); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := base
			if i%2 == 0 {
				in = edited
			}
			if err := eng.Update(in); err != nil {
				b.Fatal(err)
			}
			for _, v := range vantages {
				res, err := eng.ResultFor(v)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Entries) < 50000 {
					b.Fatalf("vantage %s: only %d routes", v, len(res.Entries))
				}
			}
		}
	})

	b.Run("update8/independent", func(b *testing.B) {
		engines := make([]*remap.Multi, len(vantages))
		for j, v := range vantages {
			eng, err := remap.NewMulti(remap.Options{LocalHost: v})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := remapUpdate(eng, v, base); err != nil {
				b.Fatal(err)
			}
			engines[j] = eng
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := base
			if i%2 == 0 {
				in = edited
			}
			for j := range engines {
				res, err := remapUpdate(engines[j], vantages[j], in)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Entries) < 50000 {
					b.Fatalf("vantage %s: only %d routes", vantages[j], len(res.Entries))
				}
			}
		}
	})
}
