package remap

import (
	"testing"

	"pathalias/internal/graph"
	"pathalias/internal/mapgen"
)

// TestWarmBackLinkWork guards the work of a warm run that moves no back
// link. On the 50k edit map (mapgen.Scaled(50000, 1), ~1,400 hosts
// reached over back links) a mid-file cost edit must leave the default
// vantage's machine holding exactly the back links it held, the same
// *graph.Link values, and its warm run must extract at most
// maxExtractions labels. Before warm runs kept their back links, every
// one was swept and invented again and the labels below them were
// mapped anew: thousands of extractions for any edit. It counts labels
// and links, not time, so a loaded machine cannot flake it.
func TestWarmBackLinkWork(t *testing.T) {
	const maxExtractions = 64
	pins, local := mapgen.Generate(mapgen.Scaled(50000, 1))
	inputs := toInputs(pins)
	m, err := NewMulti(Options{LocalHost: local})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := update(m, inputs); err != nil {
		t.Fatal(err)
	}
	mc := m.vans[m.def].mc
	before := make(map[*graph.Link]bool)
	for l := range mc.BackLinks() {
		before[l] = true
	}
	if len(before) == 0 {
		t.Fatal("the map has no back links; the guard would be vacuous")
	}
	src, line := midFileCostEdit(inputs[2].Src, "WEEKLY*3")
	if line < 0 {
		t.Fatal("no mid-file link to edit")
	}
	inputs[2].Src = src
	res, err := update(m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental || m.vans[m.def].mc != mc {
		t.Fatal("the edit did not map warm on the same machine")
	}
	kept, invented := 0, 0
	for l := range mc.BackLinks() {
		if before[l] {
			kept++
		} else {
			invented++
		}
	}
	t.Logf("mid-file cost edit: %d extractions, %d relaxations; %d of %d back links kept, %d invented",
		res.Extractions, res.Relaxations, kept, len(before), invented)
	if kept != len(before) || invented != 0 {
		t.Errorf("the edit kept %d of %d back links and invented %d; want all kept, none invented",
			kept, len(before), invented)
	}
	if res.Extractions > maxExtractions {
		t.Errorf("the warm run extracted %d labels, over %d", res.Extractions, maxExtractions)
	}
}
