package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pathalias/internal/atomicfile"
	"pathalias/internal/fswatch"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
	"pathalias/internal/rdb"
	"pathalias/internal/remap"
	"pathalias/internal/resolver"
	"pathalias/internal/routedb"
	"pathalias/internal/whatif"
)

// sweepIn is what the traced replay of one workload runs over.
type sweepIn struct {
	inputs   []parser.Input // the workload's map
	local    string
	memServe bool    // its daemon serves an in-memory index rather than a compiled image
	stream   []query // lookups to replay; nil draws them over the map's routes
	edits    *editor // the workload's own edits; nil probes the companion map
	whatif   *whatifStats
}

const (
	// sweepRepeats is how often the sweep repeats a cheap layer call;
	// it reports the median.
	sweepRepeats = 5
	// probeEdits and probeQuestions size the probes a workload runs for
	// layers its own traffic does not use.
	probeEdits     = 12
	probeQuestions = 96
	// replayTraced caps how many lookups the span-overhead comparison
	// records (one span each).
	replayTraced = 50000
)

// sweep is the traced run: it replays the workload's input in-process
// through each layer's public functions, timing every call and
// recording a span around it, and reports the per-layer metrics.
//
// Every workload reports every layer. The pipeline layers run on the
// workload's own map (its daemon runs them at set-up); the resolver
// replays the workload's own lookups against the backing its daemon
// serves from; remap and whatif replay the workload's own edits or
// questions where it has them, and otherwise a small seeded probe on the
// paper-scale companion map drawn from the same seed, so the numbers of
// those two layers mean "this layer on the companion map" there.
func sweep(r *runner, in sweepIn) error {
	tr := r.tr
	dir := r.path("sweep")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ms := msOf

	// Parse, map, print: the batch pipeline of the workload's map.
	var (
		pres    *parser.Result
		mres    *mapper.Result
		entries []printer.Entry
		err     error
	)
	r.setLayer("parser.parse_ms", ms(timed(tr, "parser.parse", func() {
		pres, err = parser.ParseWith(parser.Options{}, in.inputs...)
	})))
	if err != nil {
		return err
	}
	src, ok := pres.Graph.Lookup(in.local)
	if !ok {
		return fmt.Errorf("sweep: local host %s not in the map", in.local)
	}
	r.setLayer("mapper.run_ms", ms(timed(tr, "mapper.run", func() {
		mres, err = mapper.Run(pres.Graph, src, mapper.DefaultOptions())
	})))
	if err != nil {
		return err
	}
	r.setLayer("mapper.relaxations", float64(mres.Relaxations))
	r.setLayer("mapper.extractions", float64(mres.Extractions))
	r.setLayer("printer.routes_ms", ms(timed(tr, "printer.routes", func() {
		entries = printer.Routes(mres, printer.Options{})
	})))
	pres, mres = nil, nil

	// Serving formats: the in-memory index, the text route file, the
	// compiled image and its publication.
	var db *routedb.DB
	r.setLayer("routedb.build_ms", ms(timed(tr, "routedb.build", func() {
		db = routedb.BuildWith(entries, routedb.Options{})
	})))
	text := filepath.Join(dir, "routes.txt")
	if err := writeFile(text, func(w io.Writer) error { _, err := db.WriteTo(w); return err }); err != nil {
		return err
	}
	r.setLayer("routedb.load_text_ms", ms(timed(tr, "routedb.load_text", func() {
		var f *os.File
		if f, err = os.Open(text); err == nil {
			_, err = routedb.Load(f)
			f.Close()
		}
	})))
	if err != nil {
		return err
	}
	es := make([]resolver.Entry, len(entries))
	for i, e := range entries {
		es[i] = resolver.Entry{Host: e.Host, Route: e.Route, Cost: e.Cost}
	}
	var image []byte
	r.setLayer("rdb.compile_ms", ms(timed(tr, "rdb.compile", func() {
		image, err = rdb.Compile(es, resolver.Options{})
	})))
	if err != nil {
		return err
	}
	r.setLayer("rdb.image_mb", float64(len(image))/1e6)
	imgPath := filepath.Join(dir, "routes.rdb")
	var pubs []float64
	for i := 0; i < sweepRepeats; i++ {
		pubs = append(pubs, ms(timed(tr, "atomicfile.publish", func() {
			err = atomicfile.Publish(imgPath, func(w io.Writer) error { _, err := w.Write(image); return err })
		})))
		if err != nil {
			return err
		}
	}
	r.setLayer("atomicfile.publish_ms", median(pubs))
	var opens []float64
	for i := 0; i < sweepRepeats; i++ {
		var odb *routedb.DB
		opens = append(opens, ms(timed(tr, "routedb.open_binary", func() { odb, err = routedb.OpenBinary(imgPath) })))
		if err != nil {
			return err
		}
		odb.Close()
	}
	r.setLayer("routedb.open_binary_ms", median(opens))
	kick, err := kickLatency(tr, dir)
	if err != nil {
		return err
	}
	r.setLayer("fswatch.kick_ms", ms(kick))

	// Resolver: the workload's lookups against the backing its daemon
	// serves from.
	serve := db
	if !in.memServe {
		if serve, err = routedb.OpenBinary(imgPath); err != nil {
			return err
		}
		defer serve.Close()
	}
	stream := in.stream
	if stream == nil {
		stream = queryStream(newRand(r.seed, "sweep-lookups"), hostNames(entries), lookupRing)
	}
	if err := replayLookups(r, serve, stream); err != nil {
		return err
	}
	entries, es, image, db = nil, nil, nil, nil
	runtime.GC()

	// Remap and whatif: the workload's own edits and questions, or
	// probes on the companion map.
	var companion *editor
	if in.edits == nil || in.whatif == nil {
		ins, local := r.generate(paperMap)
		names, srcs := inputNames(dir, ins)
		companion, err = newEditor(tr, newRand(r.seed, "probe-edits"), names, srcs, local, nil)
		if err != nil {
			return err
		}
		defer companion.close()
	}
	edits := in.edits
	if edits == nil {
		for k := 1; k <= probeEdits; k++ {
			if _, err := companion.step(k); err != nil {
				return err
			}
		}
		edits = companion
	}
	setRemapLayers(r, edits)
	wst := in.whatif
	if wst == nil {
		pool := specPool(newRand(r.seed, "probe-specs"), allLinks(companion.srcs), specPoolSize)
		qs := whatifStream(newRand(r.seed, "probe-questions"), len(pool), whatif.DefaultMaxCached, companion.hosts, probeQuestions)
		st, err := replayWhatif(tr, companion.eng, companion.local, pool, qs)
		if err != nil {
			return err
		}
		wst = &st
	}
	r.setLayer("whatif.cold_ms", median(wst.cold))
	r.setLayer("whatif.cached_us", median(wst.cached)*1000)
	r.setLayer("whatif.hit_ratio", float64(wst.hits)/float64(wst.hits+wst.misses))
	r.notef("whatif replay: %d cold (median %.2f ms), %d cached (median %.1f µs), hit ratio %d/%d",
		len(wst.cold), median(wst.cold), len(wst.cached), median(wst.cached)*1000, wst.hits, wst.hits+wst.misses)

	totals := tr.selfTimes()
	for _, name := range sortedNames(totals) {
		t := totals[name]
		r.notef("span %-22s n=%-7d self %10.3f ms  total %10.3f ms", name, t.n, ms(t.self), ms(t.total))
	}
	layers := layerSelf(totals)
	for _, name := range sortedNames(layers) {
		r.notef("layer %-12s self %10.3f ms", name, ms(layers[name]))
	}
	return nil
}

// timed runs fn inside a span and returns its wall time.
func timed(tr *tracer, name string, fn func()) time.Duration {
	sp := tr.begin(name, -1, 0)
	t := time.Now()
	fn()
	d := time.Since(t)
	tr.end(sp)
	return d
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kickLatency measures how long a watched file's rename-replace takes
// to reach a watcher's kick channel: the floor under every
// edit-to-serve time.
func kickLatency(tr *tracer, dir string) (time.Duration, error) {
	path := filepath.Join(dir, "watched.map")
	if err := os.WriteFile(path, []byte("a\tb(1)\n"), 0o644); err != nil {
		return 0, err
	}
	w, err := fswatch.New([]string{path})
	if err != nil {
		return 0, fmt.Errorf("fswatch: %w", err)
	}
	defer w.Close()
	var lats []float64
	for i := 0; i < sweepRepeats; i++ {
		tmp := path + ".new"
		if err := os.WriteFile(tmp, []byte(fmt.Sprintf("a\tb(%d)\n", i+2)), 0o644); err != nil {
			return 0, err
		}
		time.Sleep(20 * time.Millisecond)
		select {
		case <-w.Kicks():
		default:
		}
		sp := tr.begin("fswatch.kick", -1, int64(i))
		t := time.Now()
		if err := os.Rename(tmp, path); err != nil {
			return 0, err
		}
		select {
		case <-w.Kicks():
		case <-time.After(2 * time.Second):
			return 0, fmt.Errorf("fswatch: no kick within 2s of a rename")
		}
		lats = append(lats, float64(time.Since(t)))
		tr.end(sp)
	}
	return time.Duration(median(lats)), nil
}

// replayLookups times the resolver on the workload's lookups, kind by
// kind, then the whole stream with and without a span per lookup.
func replayLookups(r *runner, db *routedb.DB, stream []query) error {
	type req struct{ dest, user []byte }
	var byKind [numKinds][]req
	all := make([]req, len(stream))
	for i, q := range stream {
		all[i] = req{[]byte(q.dest), []byte(q.user)}
		byKind[q.kind] = append(byKind[q.kind], all[i])
	}
	var sc routedb.Scratch
	dst := make([]byte, 0, 512)
	pass := func(rs []req) time.Duration {
		t := time.Now()
		for _, q := range rs {
			dst, _ = db.AppendResolve(dst[:0], q.dest, q.user, &sc)
		}
		return time.Since(t)
	}
	for k, rs := range byKind {
		if len(rs) == 0 {
			return fmt.Errorf("replay: no %s lookups in the stream", kindNames[k])
		}
		var per []float64
		for round := 0; round < 3; round++ {
			per = append(per, float64(pass(rs))/float64(len(rs)))
		}
		r.setLayer("resolver."+kindNames[k]+"_ns", median(per))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pass(all)
	runtime.ReadMemStats(&m1)
	r.notef("resolver.allocs_per_op %.4f (%d lookups)", float64(m1.Mallocs-m0.Mallocs)/float64(len(all)), len(all))

	// Span overhead: the same lookups with one span each, alternating
	// with the plain pass so neither side gets the warmer cache.
	traced := all[:min(len(all), replayTraced)]
	var plain, spanned []float64
	for round := 0; round < 3; round++ {
		plain = append(plain, float64(pass(traced)))
		tr := newTracer()
		if round == 2 {
			tr = r.tr
		}
		t := time.Now()
		for i, q := range traced {
			sp := tr.begin("resolver.resolve", -1, int64(i))
			dst, _ = db.AppendResolve(dst[:0], q.dest, q.user, &sc)
			tr.end(sp)
		}
		spanned = append(spanned, float64(time.Since(t)))
	}
	r.setLayer("trace.overhead_pct", (median(spanned)/median(plain)-1)*100)
	return nil
}

// setRemapLayers reports the engine's cost per accepted edit.
func setRemapLayers(r *runner, ed *editor) {
	var wall, scanFile, scan, patch, snap, mapSum, routeSum, touched []float64
	warm, full := 0, 0
	ms := msOf
	for _, s := range ed.accepted {
		wall = append(wall, ms(s.wall))
		scanFile = append(scanFile, ms(s.scan))
		scan = append(scan, ms(s.timing.Scan))
		patch = append(patch, ms(s.timing.Patch))
		snap = append(snap, ms(s.timing.Snapshot))
		mapSum = append(mapSum, ms(s.timing.MapSum))
		routeSum = append(routeSum, ms(s.timing.RouteSum))
		touched = append(touched, float64(s.timing.NodesTouched))
		warm += s.warm
		full += s.full
	}
	r.setLayer("remap.update_p50_ms", median(wall))
	r.setLayer("parser.scan_file_ms", median(scanFile))
	r.setLayer("remap.scan_ms", median(scan))
	r.setLayer("remap.patch_ms", median(patch))
	r.setLayer("remap.snapshot_ms", median(snap))
	r.setLayer("remap.map_ms", median(mapSum))
	r.setLayer("remap.route_ms", median(routeSum))
	d := summarize(wall)
	r.notef("remap replay: %d edits accepted, %d drawn edits undone (no served answer changed); remap.update_p50_ms %.2f, %s",
		len(ed.accepted), ed.rejected, d.p50, d.tailText("remap.update", "ms"))
	r.notef("remap.warm_frac %.3f (%d warm of %d vantage re-maps); remap.nodes_touched median %.0f, max %.0f",
		float64(warm)/float64(max(warm+full, 1)), warm, warm+full, median(touched), summarize(touched).max)
}

// whatifStats is what an overlay-question replay measured.
type whatifStats struct {
	cold, cached []float64 // milliseconds
	hits, misses uint64
}

// replayWhatif asks the questions in order through a fresh evaluator
// with the daemon's cache size, so hits and misses repeat exactly per
// seed.
func replayWhatif(tr *tracer, eng *remap.Multi, local string, pool []string, qs []wquery) (whatifStats, error) {
	ev := whatif.New(eng, whatif.Options{MaxCached: whatif.DefaultMaxCached})
	var st whatifStats
	for i, q := range qs {
		before := ev.Stats()
		sp := tr.begin("whatif.resolve", -1, int64(i))
		t := time.Now()
		_, err := ev.Resolve(local, pool[q.spec], q.dests[0], q.user)
		d := float64(time.Since(t)) / float64(time.Millisecond)
		tr.end(sp)
		if err != nil && !strings.Contains(err.Error(), "no route") {
			return st, fmt.Errorf("whatif %s: %w", pool[q.spec], err)
		}
		if ev.Stats().Misses > before.Misses {
			st.cold = append(st.cold, d)
		} else {
			st.cached = append(st.cached, d)
		}
	}
	s := ev.Stats()
	st.hits, st.misses = s.Hits, s.Misses
	return st, nil
}

// inputNames returns the names and sources of generated map files as
// they would sit in dir.
func inputNames(dir string, ins []parser.Input) (names, srcs []string) {
	for _, in := range ins {
		names = append(names, filepath.Join(dir, in.Name))
		srcs = append(srcs, in.Src)
	}
	return names, srcs
}
