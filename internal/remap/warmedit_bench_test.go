package remap

import (
	"testing"
	"time"

	"pathalias/internal/mapgen"
)

// BenchmarkWarmEditVantages times the layers of a warm edit on the 50k
// edit map with the default vantage and three from= vantages resident
// (host23, host19, host28): alternating mid-file cost edits, as in
// BenchmarkStmtPatchMidFile, each an Update (warm re-map of the
// default) and a Refresh (warm re-map of the other three). Per edit it
// reports the snapshot stage (UpdateTiming.Snapshot: the patched CSR
// snapshot and its patched reverse adjacency), the map stage's wall
// time (UpdateTiming.Map: the default's), the Refresh's wall time, and
// the mapping and route derivation work summed across the four
// vantages (MapSum, RouteSum).
//
//	go test -run '^$' -bench WarmEditVantages -benchtime 100x ./internal/remap/
func BenchmarkWarmEditVantages(b *testing.B) {
	pins, local := mapgen.Generate(mapgen.Scaled(50000, 1))
	inputs := toInputs(pins)
	m, err := NewMulti(Options{LocalHost: local})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Update(inputs); err != nil {
		b.Fatal(err)
	}
	for _, h := range []string{"host23", "host19", "host28"} {
		if _, err := m.ResultFor(h); err != nil {
			b.Fatal(err)
		}
	}
	const file = 2
	var srcs [2]string
	for i, c := range []string{"WEEKLY*3", "DAILY*5"} {
		if srcs[i], _ = midFileCostEdit(inputs[file].Src, c); srcs[i] == inputs[file].Src {
			b.Fatal("no mid-file link to edit")
		}
	}
	var refresh time.Duration
	update := func(i int) UpdateTiming {
		inputs[file].Src = srcs[i%2]
		if err := m.Update(inputs); err != nil {
			b.Fatal(err)
		}
		mark := time.Now()
		m.Refresh()
		refresh += time.Since(mark)
		return m.Timing()
	}
	// Two edits before timing: the first warm runs build the reverse
	// adjacency the later snapshots patch.
	update(0)
	update(1)
	var snap, mapWall, mapSum, routeSum time.Duration
	refresh = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := update(i)
		snap += tm.Snapshot
		mapWall += tm.Map
		mapSum += tm.MapSum
		routeSum += tm.RouteSum
	}
	per := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(per(snap), "snapshot-ms")
	b.ReportMetric(per(mapWall), "map-ms")
	b.ReportMetric(per(refresh), "refresh-ms")
	b.ReportMetric(per(mapSum), "mapsum-ms")
	b.ReportMetric(per(routeSum), "routesum-ms")
}
