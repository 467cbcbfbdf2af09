package remap

// BenchmarkRemapHostAdd and TestHostAddSpeedup quantify what the rank
// re-base buys: adding a host to the 50k-host map on the warm path
// (delta scan + snapshot + RebaseGrow + a near-empty queue drain +
// route patch) versus the full re-map the same edit cost before —
// forced here by setting the vantage's needFull, which reproduces the
// pre-rebase behavior exactly (grown generations already rebuilt the
// snapshot; the full path adds the complete mapping run and route
// rebuild). Medians are recorded in BENCH_map.json.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"pathalias/internal/mapgen"
)

func hostAdd50k(tb testing.TB) ([]Input, string) {
	tb.Helper()
	pins, local := mapgen.Generate(mapgen.Scaled(50000, 18))
	return toInputs(pins), local
}

func benchRemapHostAdd(b *testing.B, forceFull bool) {
	inputs, local := hostAdd50k(b)
	m, err := NewMulti(Options{LocalHost: local})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := update(m, inputs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inputs = appendToFirst(inputs, fmt.Sprintf("\nbenchadd%d\thost7(DAILY)\n", i))
		if forceFull {
			m.vans[m.def].needFull = true
		}
		res, err := update(m, inputs)
		if err != nil {
			b.Fatal(err)
		}
		if res.Incremental == forceFull {
			b.Fatalf("iteration %d: wrong path (incremental=%v)", i, res.Incremental)
		}
	}
}

func BenchmarkRemapHostAdd(b *testing.B) {
	b.Run("incremental", func(b *testing.B) { benchRemapHostAdd(b, false) })
	b.Run("full", func(b *testing.B) { benchRemapHostAdd(b, true) })
}

// TestHostAddSpeedup enforces the acceptance floor: on the 50k-host
// map, a host add on the warm path must re-map at least 3x faster than
// the full rebuild it used to cost, with output equivalence separately
// guaranteed by the warm-add and randomized suites. Rounds interleave
// the two paths on one engine and compare medians, which rides out most
// scheduler noise on small shared machines.
func TestHostAddSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing test; race instrumentation distorts the warm/full ratio")
	}
	inputs, local := hostAdd50k(t)
	m, err := NewMulti(Options{LocalHost: local})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := update(m, inputs); err != nil {
		t.Fatal(err)
	}

	const rounds = 5
	var warmNs, fullNs []float64
	for r := 0; r < rounds; r++ {
		inputs = appendToFirst(inputs, fmt.Sprintf("\nspeedadd%dw\thost7(DAILY)\n", r))
		start := time.Now()
		res, err := update(m, inputs)
		warm := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Incremental {
			t.Fatalf("round %d: host add fell off the warm path", r)
		}
		warmNs = append(warmNs, float64(warm.Nanoseconds()))

		inputs = appendToFirst(inputs, fmt.Sprintf("\nspeedadd%df\thost7(DAILY)\n", r))
		m.vans[m.def].needFull = true
		start = time.Now()
		res, err = update(m, inputs)
		full := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if res.Incremental {
			t.Fatalf("round %d: forced full run reported incremental", r)
		}
		fullNs = append(fullNs, float64(full.Nanoseconds()))
	}
	sort.Float64s(warmNs)
	sort.Float64s(fullNs)
	warmMed, fullMed := warmNs[rounds/2], fullNs[rounds/2]
	ratio := fullMed / warmMed
	t.Logf("host add on 50k hosts: warm median %.1fms, full median %.1fms, speedup %.1fx",
		warmMed/1e6, fullMed/1e6, ratio)
	if ratio < 3 {
		t.Fatalf("warm host add only %.2fx faster than full re-map (want >= 3x): warm %.1fms, full %.1fms",
			ratio, warmMed/1e6, fullMed/1e6)
	}
}
