package main

// Source-watch mode (-map): instead of serving a precompiled routes.db,
// routed owns the whole pipeline. Map sources are read into the heap
// (so an editor saving in place can never pull pages out from under the
// engine's cached fragments), routes are computed in-process by the
// incremental multi-source engine, and on every source edit only the
// changed files are re-scanned and only the affected region of the
// network is re-mapped, once for the shared graph and then warmly per
// vantage — every resolver store
// hot-swaps in milliseconds where a batch rebuild took the better part
// of a second, and a cron'd pathalias|mkdb pipeline took minutes.
//
// Vantages beyond the default (-l) spin up lazily on the first
// from=<host> query: the shared fragment cache, graph, and CSR snapshot
// are already warm, so a new vantage costs one mapping run, not a
// re-parse. Each vantage keeps its own hot-swappable store. A source
// edit re-maps the default vantage and swaps its store first; only then
// are the other resident vantages re-mapped and their stores swapped,
// and, outside the watcher's lock, the image published.
//
// The daemon reaches all of this through one pointer, daemon.mw, nil
// outside -map mode, and through one gate, daemon.gate, which also
// refuses the engine-backed queries while a warm start's first
// computation runs. Two paths pass the gate: daemon.storeFor for from=
// resolves (below) and daemon.whatif, the what-if dispatcher every
// surface calls. newMapWatcher is the whole -map start, warm or cold.

import (
	"context"
	"fmt"
	"io"
	"maps"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pathalias/internal/atomicfile"
	"pathalias/internal/core"
	"pathalias/internal/fswatch"
	"pathalias/internal/obs"
	"pathalias/internal/remap"
	"pathalias/internal/routedb"
	"pathalias/internal/whatif"
)

// mapWatcher drives a multi-source remap engine over a set of map
// source files and swaps the results into the daemon's stores: the
// default store for the -l vantage, one registered store per from=
// vantage.
type mapWatcher struct {
	d     *daemon
	eng   *remap.Multi
	local string // folded default vantage name
	paths []string

	// stores is the registry of from= vantage stores, read without a
	// lock: a query loads the map, and a spin-up or an eviction stores a
	// changed copy. A resident vantage's store object stays the same for
	// its life; a re-map swaps the database inside it.
	stores atomic.Pointer[map[string]*routedb.Store]

	// mu is held across a lazy store's compute+register and across
	// remap's swap pass, so the two cannot interleave: without that, a
	// store built from a pre-edit Result could register just after the
	// swap pass skipped its (then absent) entry and pin stale routes
	// until the next edit. Lock order is mu before the engine's internal
	// lock (both paths call the engine while holding mu).
	mu sync.Mutex

	// gens records the RouteGen each store (the default under the local
	// host's name) was last built from, so a re-map that did not change a
	// vantage's entries — a pure warm no-op for that source, the common
	// case when one edit touches one corner of the network — skips that
	// store's rebuild and swap entirely.
	gens map[string]uint64

	// pub republishes the default vantage's compiled database under its
	// RouteGen (Path "" without -o-db).
	pub *atomicfile.Publisher

	// whatif evaluates overlay queries (resolve-under-overlay, explain,
	// impact) against the engine, for daemon.whatif.
	whatif *whatif.Evaluator

	// ready is closed once the engine's first computation has landed (or
	// definitively failed). On a warm start the initial re-map runs in the
	// background while the daemon serves the last published image;
	// daemon.gate reads this channel to refuse the queries that need the
	// live engine until then.
	ready chan struct{}

	// passHook and pubHook run at the start of remap's swap pass, with mu
	// held, and of its publish, without; tests set them to hold either.
	passHook, pubHook func()
}

// newMapWatcher builds the engine, sets it as d's -map watcher and
// starts the initial full map computation. With an image already
// published at odb it warm-starts: the image is served at once (lookups
// are answered from the mmap within milliseconds of exec), its deferred
// audit-grade verification runs behind it, demoting to an empty store
// (all misses, never wrong answers) if the image turns out corrupt
// before the live engine supersedes it, and the initial computation
// runs in the background, swapping the live engine's database in when
// it lands; until then d.gate refuses the engine-backed query forms.
// Otherwise the computation is synchronous: the daemon does not serve
// until the first database is swapped in, and an initial-map error is
// fatal.
func newMapWatcher(d *daemon, localHost string, maxVantages int, paths []string, odb string) (*mapWatcher, error) {
	eng, err := remap.NewMulti(remap.Options{
		LocalHost:   localHost,
		FoldCase:    d.opts.FoldCase,
		MaxVantages: maxVantages,
	})
	if err != nil {
		return nil, err
	}
	w := &mapWatcher{
		d:     d,
		eng:   eng,
		local: eng.Fold(localHost),
		paths: paths,
		gens:  make(map[string]uint64),
		pub:   &atomicfile.Publisher{Path: odb},
		ready: make(chan struct{}),

		passHook: func() {},
		pubHook:  func() {},
	}
	w.stores.Store(&map[string]*routedb.Store{})
	var wopts whatif.Options
	if d.metrics != nil {
		// Every overlay evaluation lands in the cold or cached latency
		// histogram; the evaluator reports which path it actually took
		// (a concurrent identical evaluation counts as cached).
		mm := d.metrics
		wopts.Observe = func(cold bool, dur time.Duration) {
			if cold {
				mm.overlayCold.Observe(dur)
			} else {
				mm.overlayCached.Observe(dur)
			}
		}
	}
	w.whatif = whatif.New(eng, wopts)
	if d.metrics != nil {
		d.metrics.registerMapMetrics(eng, w.whatif)
	}
	d.mw = w

	warm := false
	if odb != "" {
		if db, err := routedb.OpenBinary(odb); err == nil {
			d.install(db)
			d.logf("warm start: serving %d routes from %s while the first map computation runs", db.Len(), odb)
			d.auditImage(db, nil, odb)
			warm = true
		} else if !os.IsNotExist(err) {
			d.warnf("warm start from %s: %v (computing from sources instead)", odb, err)
		}
	}
	if !warm {
		defer close(w.ready)
		if err := w.remap(); err != nil {
			return nil, err
		}
		return w, nil
	}
	go func() {
		defer close(w.ready)
		if err := w.remap(); err != nil {
			d.logf("initial map: %v (still serving the published image)", err)
		}
	}()
	return w, nil
}

// residentCounts reports each resident vantage's served route count for
// /stats: the default store under the -l host's name plus every
// lazily-registered vantage store.
func (w *mapWatcher) residentCounts() map[string]int {
	stores := *w.stores.Load()
	out := make(map[string]int, len(stores)+1)
	out[w.local] = w.d.store.Len()
	for name, st := range stores {
		out[name] = st.Len()
	}
	return out
}

// storeFor picks the store answering a resolve from vantage from: the
// default store for no from= or the -l host; once the gate lets the
// query through, a resident vantage's store, found without a lock (so a
// re-map in progress never delays it, and a query spelled as registered
// allocates nothing); or a lazily created one. The first query for a
// vantage computes it over the already-warm shared engine state, With
// the default store's database, whose index it shares when the host
// columns match.
func (d *daemon) storeFor(from []byte) (*routedb.Store, error) {
	if len(from) == 0 {
		return d.store, nil
	}
	w, err := d.gate(errFromMode)
	if err != nil {
		return nil, err
	}
	if st := (*w.stores.Load())[string(from)]; st != nil {
		return st, nil
	}
	name := w.eng.Fold(string(from))
	if name == w.local {
		return d.store, nil
	}
	if st := (*w.stores.Load())[name]; st != nil {
		return st, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if st := (*w.stores.Load())[name]; st != nil {
		return st, nil // another query spun it up first
	}
	res, err := w.eng.ResultFor(name)
	if err != nil {
		return nil, fmt.Errorf("vantage %s: %w", name, err)
	}
	st := routedb.NewStore(d.store.DB().With(res.Entries, d.opts))
	stores := maps.Clone(*w.stores.Load())
	stores[name] = st
	w.stores.Store(&stores)
	w.gens[name] = res.RouteGen
	d.logf("vantage %s: %d routes (lazy spin-up)", name, st.Len())
	return st, nil
}

// remap runs the engine over the current file contents and swaps every
// resident vantage's store. The engine compares each file with the
// source it last scanned and rescans only the changed statements, so
// calling this on suspicion is cheap. The default answer waits only for
// its own work: the engine's Update maps the default vantage alone, and
// its store swaps (the serve point) before the other resident vantages
// are re-mapped (Refresh) and their stores swapped; the image is
// published last, after the pass has released w.mu, so a lazy spin-up
// never waits for a compile and an fsync. Each store is rebuilt With
// its predecessor, which keeps the index when no host name moved.
// Every effective generation records a stage trace (obs.Trace) in the
// daemon's ring: where the wall time went, plus the shape of the change.
func (w *mapWatcher) remap() error {
	start := time.Now()
	ins, err := core.ReadInputs(w.paths)
	if err != nil {
		return err
	}
	readDur := time.Since(start)
	statsBefore := w.eng.Stats()
	if err := w.eng.Update(ins); err != nil {
		return err
	}
	if w.d.swaps.Load() > 0 && w.eng.Stats().Unchanged > statsBefore.Unchanged {
		return nil // identical inputs: nothing to swap, no generation
	}
	// The scan-to-map stages are Update's alone; the Refresh below adds
	// only LabelsChanged to the trace.
	timing := w.eng.Timing()

	// Swap the default store, then every resident vantage's — each
	// vantage independently: one whose host vanished (including the
	// default) keeps serving its previous database while the others
	// still pick up the edit. The lock covers the whole pass so a lazy
	// storeFor cannot register a pre-edit store the pass would miss.
	w.mu.Lock()
	w.passHook()
	storeMark := time.Now()
	routes := 0
	skipped := 0
	res, defErr := w.eng.ResultFor(w.local)
	if defErr == nil {
		for _, warn := range res.Warnings {
			w.d.logf("map: %s", warn)
		}
		if res.RouteGen == w.gens[w.local] && w.d.swaps.Load() > 0 {
			// The edit re-mapped but this vantage's entries came out
			// identical: the served database is already exact.
			routes = w.d.store.Len()
			skipped++
		} else {
			db := w.d.store.DB().With(res.Entries, w.d.opts)
			routes = db.Len()
			w.d.install(db)
			w.gens[w.local] = res.RouteGen
		}
	}
	defDur := time.Since(storeMark)

	refreshMark := time.Now()
	w.eng.Refresh()
	refreshDur := time.Since(refreshMark)

	vantMark := time.Now()
	stores := *w.stores.Load()
	kept := make(map[string]*routedb.Store, len(stores))
	swapped := 0
	for _, from := range w.eng.Vantages() {
		st := stores[from]
		if st == nil {
			continue // default (has its own store above) or never queried
		}
		kept[from] = st
		vres, err := w.eng.ResultFor(from)
		if err != nil {
			w.d.warnf("vantage %s: %v (still serving previous database)", from, err)
			continue
		}
		if vres.RouteGen == w.gens[from] {
			skipped++ // entries unchanged: the current store is exact
			continue
		}
		st.Swap(st.DB().With(vres.Entries, w.d.opts))
		w.gens[from] = vres.RouteGen
		swapped++
	}
	// Stores of evicted vantages are dropped; a later query re-creates
	// both the vantage and its store.
	if len(kept) < len(stores) {
		for name := range stores {
			if kept[name] == nil {
				delete(w.gens, name)
			}
		}
		w.stores.Store(&kept)
	}
	vantDur := time.Since(vantMark)
	storeDur := time.Since(storeMark)
	// Read after the vantage pass, so the Refresh's runs count, and
	// before unlocking, so a lazy spin-up's run does not.
	stats := w.eng.Stats()
	timing.LabelsChanged = w.eng.Timing().LabelsChanged
	w.mu.Unlock()

	var pubDur, compileDur time.Duration
	published := false
	if w.pub.Path != "" && defErr == nil {
		w.pubHook()
		pubMark := time.Now()
		db := w.d.store.DB() // only remap swaps it: it serves res
		var err error
		published, err = w.pub.Publish(res.RouteGen, func(out io.Writer) error {
			img, err := db.MarshalBinary()
			compileDur = time.Since(pubMark)
			if err == nil {
				_, err = out.Write(img)
			}
			return err
		})
		if err != nil {
			w.d.warnf("publish %s: %v (previous image still intact)", w.pub.Path, err)
		} else if published {
			w.d.logf("published %s (%d routes)", w.pub.Path, db.Len())
		}
		pubDur = time.Since(pubMark)
	}

	warm := stats.Incremental - statsBefore.Incremental
	full := stats.FullRemaps - statsBefore.FullRemaps
	wall := time.Since(start)
	w.d.logf("mapped %d routes from %d files (+%d vantage stores, %d unchanged; %d warm/%d full re-maps) in %v",
		routes, len(w.paths), swapped, skipped, warm, full, wall.Round(time.Millisecond))
	storeStage := obs.Stage{Name: obs.StageStore, Dur: storeDur, Note: fmt.Sprintf("default %v + vantages map %v + %d stores %v",
		defDur.Round(time.Microsecond), refreshDur.Round(time.Microsecond), swapped, vantDur.Round(time.Microsecond))}
	pubStage := obs.Stage{Name: obs.StagePublish, Dur: pubDur}
	if compileDur > 0 {
		pubStage.Note = fmt.Sprintf("compile %v + write/fsync %v",
			compileDur.Round(time.Microsecond), (pubDur - compileDur).Round(time.Microsecond))
	}
	srcBytes := 0
	for _, in := range ins {
		srcBytes += len(in.Src)
	}
	w.recordTrace(start, wall, readDur, srcBytes, timing, storeStage, pubStage, published, warm, full, routes, skipped)
	return defErr
}

// recordTrace assembles the generation's stage trace. timing is the
// engine's per-phase timing of the Update (scan/patch/snapshot/map:
// the default vantage's mapping), with LabelsChanged read after the
// vantage pass; whatever the named stages do not account for —
// scheduling, logging, bookkeeping — is closed out as an explicit
// "other" stage, so the stages always sum to the generation's wall
// time. store and publish are timed (and annotated) by the caller;
// srcBytes is the size of all sources read.
func (w *mapWatcher) recordTrace(start time.Time, wall, readDur time.Duration, srcBytes int, timing remap.UpdateTiming, store, publish obs.Stage, published bool, warm, full, routes, storesUnchanged int) {
	if w.d.traces == nil {
		return
	}
	stages := []obs.Stage{
		{Name: obs.StageRead, Dur: readDur},
		{Name: obs.StageScan, Dur: timing.Scan, Note: fmt.Sprintf("rescanned %d of %d bytes", timing.BytesRescanned, srcBytes)},
		{Name: obs.StagePatch, Dur: timing.Patch},
		{Name: obs.StageSnapshot, Dur: timing.Snapshot, Note: snapshotNote(timing)},
		{Name: obs.StageMap, Dur: timing.Map, Note: fmt.Sprintf("default vantage: mapping %v + route derivation %v",
			timing.MapSum.Round(time.Microsecond), timing.RouteSum.Round(time.Microsecond))},
		store,
		publish,
	}
	var accounted time.Duration
	for _, s := range stages {
		accounted += s.Dur
	}
	if other := wall - accounted; other > 0 {
		stages = append(stages, obs.Stage{Name: obs.StageOther, Dur: other})
	}
	tr := &obs.Trace{
		Gen:             w.eng.Generation(),
		Start:           start,
		Wall:            wall,
		Path:            timing.Path,
		Warm:            warm,
		Full:            full,
		Nodes:           timing.Nodes,
		NodesTouched:    timing.NodesTouched,
		LinksTouched:    timing.LinksTouched,
		Replayed:        timing.StmtsReplayed,
		Rescanned:       timing.Rescanned,
		BytesRescanned:  timing.BytesRescanned,
		RowsRebuilt:     timing.RowsRebuilt,
		Routes:          routes,
		Published:       published,
		LabelsChanged:   timing.LabelsChanged,
		StoresUnchanged: storesUnchanged,
		Stages:          stages,
	}
	w.d.traces.Add(tr)
	w.d.log.Debug("remap trace", "trace", tr.Line())
}

// snapshotNote annotates the snapshot stage: how much of the CSR
// snapshot was rebuilt, and how its reverse adjacency was made.
func snapshotNote(t remap.UpdateTiming) string {
	rev := "built"
	if t.ReversePatched {
		rev = "patched"
	}
	return fmt.Sprintf("rebuilt %d of %d rows, reverse %s", t.RowsRebuilt, t.Nodes, rev)
}

// watch re-maps whenever fswatch.Watch reports that a source may have
// changed, until ctx is done; the engine's byte compare against the
// sources it last scanned (or last rejected) makes a re-map of
// identical sources a cheap no-op. Errors (a mid-edit syntax error, a
// vanished file) are logged once (fswatch.Watch's failure policy) and
// the previous databases keep serving — exactly like the -d watcher.
func (w *mapWatcher) watch(ctx context.Context, interval time.Duration) {
	// On a warm start the initial computation is still running in its own
	// goroutine; it owns the watcher's state until ready closes.
	select {
	case <-w.ready:
	case <-ctx.Done():
		return
	}
	fswatch.Watch(ctx, w.paths, interval, w.remap, func(err error) {
		w.d.logf("remap: %v (still serving previous database)", err)
	})
}
