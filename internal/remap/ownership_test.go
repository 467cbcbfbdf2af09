package remap

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pathalias/internal/mapgen"
	"pathalias/internal/printer"
	"pathalias/internal/routedb"
)

// handedOut remembers what the engine handed out — a vantage's Result
// and a route store indexed from it, as routed builds one — together
// with deep copies taken when they were returned. The engine never
// writes a row array once handed out, so both must equal their copies
// after any number of later updates.
type handedOut struct {
	label       string
	res         *Result
	entries     []printer.Entry
	warnings    []string
	unreachable []string
	routeGen    uint64
	db          *routedb.DB
	dbEntries   []routedb.Entry
}

// ownership records and re-checks everything handed out so far.
type ownership struct {
	kept []handedOut
}

// keep records res and a store built from it.
func (o *ownership) keep(label string, res *Result, opts Options) {
	db := routedb.BuildWith(res.Entries, routedb.Options{FoldCase: opts.FoldCase})
	o.kept = append(o.kept, handedOut{
		label:       label,
		res:         res,
		entries:     slices.Clone(res.Entries),
		warnings:    slices.Clone(res.Warnings),
		unreachable: slices.Clone(res.Unreachable),
		routeGen:    res.RouteGen,
		db:          db,
		dbEntries:   slices.Clone(db.Entries()),
	})
}

// verify fails t if any kept Result or store changed since it was kept.
func (o *ownership) verify(t *testing.T, label string) {
	t.Helper()
	for _, h := range o.kept {
		r := h.res
		if !slices.Equal(r.Entries, h.entries) || !slices.Equal(r.Warnings, h.warnings) ||
			!slices.Equal(r.Unreachable, h.unreachable) || r.RouteGen != h.routeGen {
			t.Fatalf("%s: the Result returned at %s changed since", label, h.label)
		}
		if !slices.Equal(h.db.Entries(), h.dbEntries) {
			t.Fatalf("%s: the store built at %s changed since", label, h.label)
		}
		for _, en := range h.dbEntries {
			if got, ok := h.db.Lookup(en.Host); !ok || got != en {
				t.Fatalf("%s: the store built at %s answers %q with %+v, %v; want %+v", label, h.label, en.Host, got, ok, en)
			}
		}
	}
}

// TestStoreOutlivesUpdates: a reader resolves through a store built
// from one generation's Result, and reads that Result's entries, while
// further updates recompute the vantage. Under -race this catches any
// write to a row array the engine has handed out; without it, the
// answers must still be the ones the store gave when it was built.
func TestStoreOutlivesUpdates(t *testing.T) {
	cfg := mapgen.Small()
	pins, local := mapgen.Generate(cfg)
	inputs := toInputs(pins)
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
	db := routedb.BuildWith(res.Entries, routedb.Options{})
	entries, dbEntries := slices.Clone(res.Entries), slices.Clone(db.Entries())

	var stop atomic.Bool
	var wg sync.WaitGroup
	var rounds int
	var fail string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ; !stop.Load() || rounds == 0; rounds++ {
			for _, w := range dbEntries {
				if got, ok := db.Lookup(w.Host); !ok || got != w {
					fail = fmt.Sprintf("round %d: the store answers %q with %+v, %v; want %+v", rounds, w.Host, got, ok, w)
					return
				}
			}
			for i, en := range res.Entries {
				if en != entries[i] {
					fail = fmt.Sprintf("round %d: entry %d reads %+v; want %+v", rounds, i, en, entries[i])
					return
				}
			}
		}
	}()

	rng := rand.New(rand.NewSource(3))
	var mu mutator
	changed, gen := 0, res.RouteGen
	for step := 0; step < 12; step++ {
		inputs, _ = mutateMap(rng, inputs, &mu)
		if err := m.Update(inputs); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if r, err := m.ResultFor(local); err == nil && r.RouteGen != gen {
			changed, gen = changed+1, r.RouteGen
		}
	}
	stop.Store(true)
	wg.Wait()
	if fail != "" {
		t.Fatal(fail)
	}
	if changed < 2 {
		t.Fatalf("only %d of 12 updates changed the vantage's rows; the test needs row-changing updates", changed)
	}
	t.Logf("%d reader rounds over %d routes while %d row-changing updates ran", rounds, len(entries), changed)
}
