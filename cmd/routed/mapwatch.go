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
// re-parse. Each vantage keeps its own hot-swappable store; a source
// edit re-maps the resident vantages and swaps all their stores.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"pathalias/internal/atomicfile"
	"pathalias/internal/core"
	"pathalias/internal/fswatch"
	"pathalias/internal/mapper"
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

	// mu guards stores and is held across a lazy store's compute+register
	// and across remap's swap pass, so the two cannot interleave: without
	// that, a store built from a pre-edit Result could register just
	// after the swap pass skipped its (then absent) entry and pin stale
	// routes until the next edit. Lock order is mu before the engine's
	// internal lock (both paths call eng.ResultFor while holding mu).
	mu     sync.Mutex
	stores map[string]*routedb.Store

	// gens records the RouteGen each store (the default under the local
	// host's name) was last built from, so a re-map that did not change a
	// vantage's entries — a pure warm no-op for that source, the common
	// case when one edit touches one corner of the network — skips that
	// store's rebuild and swap entirely.
	gens map[string]uint64

	// odb is the compiled database continuously republished from the
	// default vantage ("" = none); pubGen/pubOK track the RouteGen of the
	// last published image so no-op re-maps publish nothing. Guarded by
	// mu (only remap, which holds it, touches them).
	odb    string
	pubGen uint64
	pubOK  bool

	// ready is closed once the engine's first computation has landed (or
	// definitively failed). On a warm start the initial re-map runs in the
	// background while the daemon serves the last published image;
	// d.mapReady reads this channel to gate the queries that need the
	// live engine.
	ready chan struct{}
}

// newMapWatcher builds the engine and performs the initial full map
// computation. Cold (warm=false), the computation is synchronous: the
// daemon does not serve until the first database is swapped in, and an
// initial-map error is fatal. Warm, the daemon is already serving the
// last published image, so the initial computation runs in the
// background and swaps the live engine's database in when it lands;
// until then d.mapReady gates the engine-backed query forms.
func newMapWatcher(d *daemon, localHost string, maxVantages int, paths []string, odb string, warm bool) (*mapWatcher, error) {
	if d.opts.FoldCase {
		localHost = strings.ToLower(localHost)
	}
	eng, err := remap.NewMulti(remap.Options{
		LocalHost:   localHost,
		Mapper:      func() *mapper.Options { o := mapper.DefaultOptions(); return &o }(),
		FoldCase:    d.opts.FoldCase,
		MaxVantages: maxVantages,
	})
	if err != nil {
		return nil, err
	}
	w := &mapWatcher{
		d:      d,
		eng:    eng,
		local:  localHost,
		paths:  paths,
		stores: make(map[string]*routedb.Store),
		gens:   make(map[string]uint64),
		odb:    odb,
		ready:  make(chan struct{}),
	}
	d.vantage = w.storeFor
	wopts := whatif.Options{FoldCase: d.opts.FoldCase}
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
	d.whatif = whatif.New(eng, wopts)
	d.defaultVantage = localHost
	d.residentVantages = w.residentCounts
	d.generation = eng.Generation
	if d.metrics != nil {
		d.metrics.registerMapMetrics(eng, d.whatif)
	}
	d.mapReady = func() bool {
		select {
		case <-w.ready:
			return true
		default:
			return false
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
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]int, len(w.stores)+1)
	out[w.local] = w.d.store.Len()
	for name, st := range w.stores {
		out[name] = st.Len()
	}
	return out
}

// fold normalizes a vantage name under the daemon's case policy, so the
// store registry does not split on query spelling.
func (w *mapWatcher) fold(host string) string {
	if w.d.opts.FoldCase {
		return strings.ToLower(host)
	}
	return host
}

// storeFor serves a from=<host> query: the default store for the -l
// vantage, an existing per-vantage store, or a lazily created one (the
// first query for a vantage computes it over the already-warm shared
// engine state).
func (w *mapWatcher) storeFor(from string) (*routedb.Store, error) {
	from = w.fold(from)
	if from == w.local {
		return w.d.store, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if st := w.stores[from]; st != nil {
		return st, nil
	}
	res, err := w.eng.ResultFor(from)
	if err != nil {
		return nil, fmt.Errorf("vantage %s: %w", from, err)
	}
	st := routedb.NewStore(routedb.BuildWith(res.Entries, w.d.opts))
	w.stores[from] = st
	w.gens[from] = res.RouteGen
	w.d.logf("vantage %s: %d routes (lazy spin-up)", from, st.Len())
	return st, nil
}

// remap runs the engine over the current file contents and swaps every
// resident vantage's store. Unchanged files are deduplicated inside the
// engine by content hash, so calling this on suspicion is cheap. Every
// effective generation records a stage trace (obs.Trace) in the
// daemon's ring: where the wall time went — read, scan, patch,
// snapshot, map, store swaps, publish — plus the shape of the change.
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
	stats := w.eng.Stats()
	if w.d.swaps.Load() > 0 && stats.Unchanged > statsBefore.Unchanged {
		return nil // identical inputs: nothing to swap, no generation
	}

	// Swap the default store, then every resident vantage's — each
	// vantage independently: one whose host vanished (including the
	// default) keeps serving its previous database while the others
	// still pick up the edit. The lock covers the whole pass so a lazy
	// storeFor cannot register a pre-edit store the pass would miss.
	w.mu.Lock()
	defer w.mu.Unlock()
	storeMark := time.Now()
	var pubDur time.Duration
	published := false
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
			db := routedb.BuildWith(res.Entries, w.d.opts)
			routes = db.Len()
			w.d.store.Swap(db)
			w.gens[w.local] = res.RouteGen
			w.d.mu.Lock()
			w.d.loadedAt = time.Now()
			w.d.mu.Unlock()
			w.d.swaps.Add(1)
			w.d.demoted.Store(false)
		}
	} else {
		w.d.warnf("vantage %s (default): %v (still serving previous database)", w.local, defErr)
	}
	if w.odb != "" && defErr == nil && (!w.pubOK || res.RouteGen != w.pubGen) {
		pubMark := time.Now()
		if err := w.publish(res.RouteGen); err != nil {
			w.d.warnf("publish %s: %v (previous image still intact)", w.odb, err)
		} else {
			published = true
		}
		pubDur = time.Since(pubMark)
	}

	resident := w.eng.Vantages()
	live := make(map[string]bool, len(resident))
	swapped := 0
	for _, from := range resident {
		live[from] = true
		st := w.stores[from]
		if st == nil {
			continue // default (has its own store above) or never queried
		}
		vres, err := w.eng.ResultFor(from)
		if err != nil {
			w.d.warnf("vantage %s: %v (still serving previous database)", from, err)
			continue
		}
		if vres.RouteGen == w.gens[from] {
			skipped++ // entries unchanged: the current store is exact
			continue
		}
		st.Swap(routedb.BuildWith(vres.Entries, w.d.opts))
		w.gens[from] = vres.RouteGen
		swapped++
	}
	// Stores of evicted vantages are dropped; a later query re-creates
	// both the vantage and its store.
	for name := range w.stores {
		if !live[name] {
			delete(w.stores, name)
			delete(w.gens, name)
		}
	}

	warm := stats.Incremental - statsBefore.Incremental
	full := stats.FullRemaps - statsBefore.FullRemaps
	storeDur := time.Since(storeMark) - pubDur
	wall := time.Since(start)
	w.d.logf("mapped %d routes from %d files (+%d vantage stores, %d unchanged; %d warm/%d full re-maps) in %v",
		routes, len(w.paths), swapped, skipped, warm, full, wall.Round(time.Millisecond))
	w.recordTrace(start, wall, readDur, storeDur, pubDur, published, warm, full, routes, skipped)
	return defErr
}

// recordTrace assembles the generation's stage trace. The engine's
// per-phase timing (scan/patch/snapshot/map) is read after the swap
// pass so lazy vantage catch-ups count into the map sums; whatever the
// named stages do not account for — scheduling, logging, bookkeeping —
// is closed out as an explicit "other" stage, so the stages always sum
// to the generation's wall time.
func (w *mapWatcher) recordTrace(start time.Time, wall, readDur, storeDur, pubDur time.Duration, published bool, warm, full, routes, storesUnchanged int) {
	if w.d.traces == nil {
		return
	}
	timing := w.eng.Timing()
	stages := []obs.Stage{
		{Name: "read", Dur: readDur},
		{Name: "scan", Dur: timing.Scan},
		{Name: "patch", Dur: timing.Patch},
		{Name: "snapshot", Dur: timing.Snapshot},
		{Name: "map", Dur: timing.Map, Note: fmt.Sprintf("across vantages: mapping %v + route derivation %v",
			timing.MapSum.Round(time.Microsecond), timing.RouteSum.Round(time.Microsecond))},
		{Name: "store", Dur: storeDur},
		{Name: "publish", Dur: pubDur},
	}
	var accounted time.Duration
	for _, s := range stages {
		accounted += s.Dur
	}
	if other := wall - accounted; other > 0 {
		stages = append(stages, obs.Stage{Name: "other", Dur: other})
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
		Routes:          routes,
		Published:       published,
		LabelsChanged:   timing.LabelsChanged,
		StoresUnchanged: storesUnchanged,
		Stages:          stages,
	}
	w.d.traces.Add(tr)
	w.d.log.Debug("remap trace", "trace", tr.Line())
}

// publish writes the default store's database — which at this point
// serves exactly the entries of the route generation gen — to w.odb,
// atomically and durably (see internal/atomicfile): a crash at any
// point leaves either the previous image or the new one, never a torn
// file. The caller has already established that gen differs from the
// last published generation, so every call here is a route change —
// except the first after a warm start, where the image on disk usually
// IS the current routes: that case is detected by byte comparison and
// adopted without a write, so a restart alone never churns the file.
// w.mu must be held (pubGen/pubOK are guarded by it).
func (w *mapWatcher) publish(gen uint64) error {
	db := w.d.store.DB()
	var buf bytes.Buffer
	if _, err := db.WriteBinary(&buf); err != nil {
		return err
	}
	if !w.pubOK {
		if old, err := os.ReadFile(w.odb); err == nil && bytes.Equal(old, buf.Bytes()) {
			w.pubGen, w.pubOK = gen, true
			return nil // warm restart: the on-disk image is already exact
		}
	}
	if err := atomicfile.Publish(w.odb, func(out io.Writer) error {
		_, err := out.Write(buf.Bytes())
		return err
	}); err != nil {
		return err
	}
	w.pubGen, w.pubOK = gen, true
	w.d.logf("published %s (%d routes)", w.odb, db.Len())
	return nil
}

// watch re-maps whenever fswatch.Watch reports that a source may have
// changed, until ctx is done; the engine's content hashes make a
// re-map of identical sources a cheap no-op. Errors (a mid-edit syntax
// error, a vanished file) are logged and the previous databases keep
// serving — exactly like the -d watcher.
func (w *mapWatcher) watch(ctx context.Context, interval time.Duration) {
	// On a warm start the initial computation is still running in its own
	// goroutine; it owns the watcher's state until ready closes.
	select {
	case <-w.ready:
	case <-ctx.Done():
		return
	}
	fswatch.Watch(ctx, w.paths, interval, func() {
		if err := w.remap(); err != nil {
			w.d.logf("remap: %v (still serving previous database)", err)
		}
	})
}
