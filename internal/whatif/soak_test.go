package whatif

import (
	"fmt"
	"testing"

	"pathalias/internal/graph"
	"pathalias/internal/mapgen"
	"pathalias/internal/printer"
	"pathalias/internal/remap"
	"pathalias/internal/simnet"
)

// TestScenarioSoak drives a generated outage/flap scenario through the
// evaluator with base-map updates interleaved: every step's impact report
// must match a from-scratch rebuild diff, and the cache must stay
// bounded.
func TestScenarioSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	inputsA := paperInputs(t)
	inputsB := []remap.Input{{Name: inputsA[0].Name, Src: inputsA[0].Src + "unc\tresearch(DEMAND)\n"}}
	m, ev := newEval(t, inputsA, Options{MaxCached: 8})

	links := simnet.OrdinaryLinks(parseFresh(t, inputsA))
	steps := simnet.OutageScenario(links, 3, 25, 3)
	cur := inputsA
	for i, st := range steps {
		if i%5 == 4 {
			// Flap the base map too: the soak must survive generation
			// churn, not just overlay churn.
			if cur = inputsA; i%10 == 4 {
				cur = inputsB
			}
			if err := m.Update(cur); err != nil {
				t.Fatal(err)
			}
		}
		spec := st.OverlaySpec()
		if spec == "" {
			continue
		}
		imp, err := ev.ImpactOf("unc", spec)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, spec, err)
		}
		// Ground truth: rebuild the current inputs from scratch with the
		// same links deleted and diff the tables host by host.
		base := entryMap(freshEntries(t, cur, "unc", nil))
		down := entryMap(freshEntries(t, cur, "unc", func(tt testing.TB, g *graph.Graph) {
			for _, l := range st.Down {
				a, _ := g.Lookup(l.From)
				b, _ := g.Lookup(l.To)
				if !g.DeleteLink(a, b) {
					tt.Fatalf("scenario link %s!%s missing", l.From, l.To)
				}
			}
		}))
		want := make(map[string]bool)
		for h, e := range base {
			if d, ok := down[h]; !ok || d != e {
				want[h] = true
			}
		}
		for h := range down {
			if _, ok := base[h]; !ok {
				want[h] = true
			}
		}
		got := make(map[string]bool)
		for _, c := range imp.Changed {
			got[c.Host] = true
		}
		if len(got) != len(want) {
			t.Fatalf("step %d (%s): impact changed %v, rebuild diff %v", i, spec, got, want)
		}
		for h := range want {
			if !got[h] {
				t.Fatalf("step %d (%s): rebuild changes %s, impact misses it", i, spec, h)
			}
		}
		if st := ev.Stats(); st.Resident > 8 {
			t.Fatalf("step %d: resident %d exceeds MaxCached", i, st.Resident)
		}
	}
}

func entryMap(es []printer.Entry) map[string]printer.Entry {
	out := make(map[string]printer.Entry, len(es))
	for _, e := range es {
		out[e.Host] = e
	}
	return out
}

// BenchmarkWhatIf measures one overlay evaluation cold (distinct spec
// every iteration — patch + map + index build) against cached
// (identical spec — one LRU lookup), on the paper map, the paper-scale
// synthetic map (mapgen.Default1986) and a synthetic 5000-host map.
// "cold" asks from a vantage that is not resident, so every run is
// full; "resident" asks the same questions from a resident vantage, so
// runs start warm from its solved tree.
func BenchmarkWhatIf(b *testing.B) {
	type size struct {
		name   string
		inputs []remap.Input
		local  string
	}
	sizes := []size{{name: "paper", inputs: paperInputs(b), local: "unc"}}
	if !testing.Short() {
		inputs, local := default1986Inputs()
		sizes = append(sizes, size{name: "default1986", inputs: inputs, local: local})
		pins, local := mapgen.Generate(mapgen.Scaled(5000, 7))
		inputs = make([]remap.Input, len(pins))
		for i, in := range pins {
			inputs[i] = remap.Input{Name: in.Name, Src: in.Src}
		}
		sizes = append(sizes, size{name: "mapgen5k", inputs: inputs, local: local})
	}
	for _, sz := range sizes {
		links := simnet.OrdinaryLinks(parseFresh(b, sz.inputs))
		dest := links[len(links)/2].To
		for _, resident := range []bool{false, true} {
			name, res := sz.name+"/cold", []string(nil)
			if resident {
				name, res = sz.name+"/resident", []string{sz.local}
			}
			b.Run(name, func(b *testing.B) {
				_, ev := newEvalWith(b, sz.inputs, remap.Options{}, Options{MaxCached: 8}, res...)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l := links[i%len(links)]
					spec := fmt.Sprintf("cost %s %s %d", l.From, l.To, 1000+i)
					if _, err := ev.Resolve(sz.local, spec, dest, "u"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(sz.name+"/cached", func(b *testing.B) {
			_, ev := newEval(b, sz.inputs, Options{MaxCached: 8})
			spec := fmt.Sprintf("dead %s %s", links[0].From, links[0].To)
			if _, err := ev.Resolve(sz.local, spec, dest, "u"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Resolve(sz.local, spec, dest, "u"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
