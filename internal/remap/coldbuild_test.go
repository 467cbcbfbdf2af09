package remap

import (
	"runtime"
	"testing"
	"time"

	"pathalias/internal/mapgen"
	"pathalias/internal/parser"
)

// TestColdBuildAllocs guards the allocations of an engine's first
// Update: on mapgen.Scaled(5000, 1), building the journal, the snapshot
// and the default vantage's routes from scratch makes at most
// maxAllocsPerRow allocations per route row. A declaration index keyed
// by (from, to), with a slice per linked pair, made 4.26 per row; the
// declaration chains on the links and the dense refcounts leave about
// 1.3. It counts allocations, not time, so a loaded machine cannot
// flake it.
func TestColdBuildAllocs(t *testing.T) {
	const maxAllocsPerRow = 2.0
	pins, local := mapgen.Generate(mapgen.Scaled(5000, 1))
	inputs := toInputs(pins)
	var rows int
	allocs := testing.AllocsPerRun(1, func() {
		m, err := NewMulti(Options{LocalHost: local})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Update(inputs); err != nil {
			t.Fatal(err)
		}
		res, err := m.ResultFor(local)
		if err != nil {
			t.Fatal(err)
		}
		rows = len(res.Entries)
	})
	perRow := allocs / float64(rows)
	t.Logf("cold Update: %.0f allocations for %d rows, %.2f per row", allocs, rows, perRow)
	if perRow > maxAllocsPerRow {
		t.Errorf("cold Update makes %.2f allocations per route row, over %.1f", perRow, maxAllocsPerRow)
	}
}

// BenchmarkColdBuild times the engine's cold journal build against the
// batch parse of the same inputs, the 50k edit map
// (mapgen.Scaled(50000, 1)). Each iteration runs parser.ParseWith (scan
// plus merge), then a first Update on a fresh engine with no vantage,
// which scans, replays every statement through the journal and takes
// the snapshot. patch-ms is the engine's patch stage
// (UpdateTiming.Patch), parse-ms the ParseWith call, and patch/parse
// their ratio.
//
//	go test -run '^$' -bench ColdBuild -benchtime 10x ./internal/remap/
func BenchmarkColdBuild(b *testing.B) {
	pins, _ := mapgen.Generate(mapgen.Scaled(50000, 1))
	inputs := toInputs(pins)
	var patch, parse time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
		start := time.Now()
		if _, err := parser.ParseWith(parser.Options{}, pins...); err != nil {
			b.Fatal(err)
		}
		parse += time.Since(start)
		runtime.GC()
		m, err := NewMulti(Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Update(inputs); err != nil {
			b.Fatal(err)
		}
		patch += m.Timing().Patch
	}
	per := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(per(patch), "patch-ms")
	b.ReportMetric(per(parse), "parse-ms")
	b.ReportMetric(float64(patch)/float64(parse), "patch/parse")
}
