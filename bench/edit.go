package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pathalias"
	"pathalias/internal/cost"
	"pathalias/internal/obs"
	"pathalias/internal/printer"
	"pathalias/internal/rdb"
	"pathalias/internal/resolver"
)

const (
	// editsPerSecond is how many edits a run makes per requested second
	// (the calibration machine serves about 4.2 a second).
	editsPerSecond = 4
	// editThink is the pause after each edit has fully landed.
	editThink = 50 * time.Millisecond
	// probeEvery is the probe's polling interval.
	probeEvery = 2 * time.Millisecond
	// editTimeout bounds one edit's journey; past it the edit counts as
	// never served.
	editTimeout = 10 * time.Second
	// readRate is the open-loop background lookup rate, and readSample
	// the number of distinct background requests. Both, like the half
	// of the reads sent from= another vantage, are assumptions: enough
	// reads to show a write stalling them, far below what one
	// connection can carry.
	readRate   = 2000
	readSample = 256
	// numVantages is how many from= vantages besides the default are
	// resident in the daemon and queried in the background.
	numVantages = 3
)

// runEdit serves a 50k-host map with routed -map -o-db and edits its
// sources one at a time, in a closed loop: each edit replaces one core
// file by rename, a probe polls a query whose answer the edit changes
// until the new answer is served, waits for the new image and for the
// daemon to finish the generation, then pauses. Beside it a second
// connection sends open-loop lookups, half from other vantages, timed
// from when each was due. The incremental engine, the rescans, the
// store rebuilds, the image compile and its publication do the work,
// and reads share the serving layer with them.
func runEdit(r *runner) error {
	ins, local := r.generate(editMap)
	paths, err := writeMap(r.path("src"), ins)
	if err != nil {
		return err
	}
	srcs := make([]string, len(ins))
	for i, in := range ins {
		srcs[i] = in.Src
	}
	vantages := pickVantages(newRand(r.seed, "vantages"), local)

	// The oracle pass: draw the edits against the in-process engine and
	// record every answer each must lead to. Traced runs record its spans.
	t := time.Now()
	ed, err := newEditor(r.tr, newRand(r.seed, "edits"), paths, srcs, local, vantages)
	if err != nil {
		return err
	}
	ed.bg = queryStream(newRand(r.seed, "edit-reads"), hostNames(ed.cur), readSample)
	vr := newRand(r.seed, "edit-read-vantages")
	for i := range ed.bg {
		if i%2 == 1 {
			ed.bg[i].from = vantages[vr.Intn(len(vantages))]
		}
	}
	n := r.perSecond(editsPerSecond)
	answers := make([][]string, 1, n+1)
	if answers[0], err = ed.answers(); err != nil {
		return err
	}
	hash0 := entriesHash(ed.cur)
	var steps []*editStep
	for k := 1; k <= n; k++ {
		st, err := ed.step(k)
		if err != nil {
			return err
		}
		steps = append(steps, st)
		answers = append(answers, st.answers)
	}
	ed.close()
	r.notef("set-up: %d routes, %d map files, vantages %v; oracle drew %d edits (%d drawn edits undone as unobservable) in %.2fs",
		len(ed.cur), len(paths), vantages, len(steps), ed.rejected, time.Since(t).Seconds())
	ed.cur, ed.routes, ed.hosts = nil, nil, nil

	// Set up the daemon: exec until the default vantage and every from=
	// vantage answer correctly.
	checks := []check{}
	for _, v := range append([]string{""}, vantages...) {
		for i, q := range ed.bg {
			if q.from == v && q.kind == kindExact {
				checks = append(checks, check{q.line(), answers[0][i]})
				break
			}
		}
	}
	img := r.path("img", "routes.rdb")
	if err := os.MkdirAll(filepath.Dir(img), 0o755); err != nil {
		return err
	}
	args := append([]string{"-map", "-l", local, "-o-db", img}, paths...)
	d, setups, err := r.setUp(3, func(i int) (*proc, time.Duration, error) {
		os.Remove(img)
		p, err := startDaemon(r.routed(), r.path(fmt.Sprintf("routed%d.log", i)), true, args...)
		if err != nil {
			return nil, 0, err
		}
		dur, err := awaitAnswers(p, checks)
		return p, dur, err
	})
	if err != nil {
		return err
	}
	defer d.stop()

	probeConn, err := dialLine(d.tcp)
	if err != nil {
		return err
	}
	defer probeConn.close()
	readConn, err := dialLine(d.tcp)
	if err != nil {
		return err
	}
	defer readConn.close()
	gen, err := traceGen(probeConn)
	if err != nil {
		return err
	}
	gen0 := gen
	ino := inode(img)
	if ino == 0 {
		return fmt.Errorf("no published image at %s after set-up", img)
	}

	// Background reads: open loop, one connection, stop-and-wait.
	var cur atomic.Int64 // newest edit written
	stopReads := make(chan struct{})
	readsDone := make(chan struct{})
	var reads readLoad
	go func() {
		defer close(readsDone)
		reads.run(readConn, ed.bg, answers, &cur, stopReads)
	}()

	cpu0, err := d.cpuTime()
	if err != nil {
		return err
	}
	var serve, image []float64
	var gens []uint64
	loopStart := time.Now()
	for k := 1; k <= len(steps); k++ {
		st := steps[k-1]
		cur.Store(int64(k))
		if err := writeReplace(paths[st.file], st.content); err != nil {
			return err
		}
		t0 := time.Now()
		r.attempted++
		var tServe, tImage time.Duration
		served, imaged := false, false
		var fail string
		for fail == "" && !(served && imaged) {
			if !served {
				got, err := probeConn.ask(st.probe.line())
				switch {
				case err != nil:
					fail = err.Error()
				case got == st.newReply:
					tServe, served = time.Since(t0), true
				case got != st.oldReply:
					fail = fmt.Sprintf("%q answered %q, want %q (or %q before the edit lands)", st.probe.line(), got, st.newReply, st.oldReply)
				}
			}
			if !imaged {
				if n := inode(img); n != 0 && n != ino {
					tImage, imaged, ino = time.Since(t0), true, n
				}
			}
			if fail == "" && time.Since(t0) > editTimeout {
				fail = fmt.Sprintf("not served and published within %v (served=%v image=%v)", editTimeout, served, imaged)
			}
			if fail == "" && !(served && imaged) {
				time.Sleep(probeEvery)
			}
		}
		// The generation is complete once its trace is recorded: every
		// vantage store has swapped by then.
		for fail == "" {
			g, err := traceGen(probeConn)
			if err != nil {
				fail = err.Error()
			} else if g > gen {
				gen = g
				break
			} else if time.Since(t0) > editTimeout {
				fail = fmt.Sprintf("generation trace not recorded within %v", editTimeout)
			}
			time.Sleep(probeEvery)
		}
		if fail != "" {
			r.failed++
			fmt.Fprintf(os.Stderr, "bench: edit %d (%s of %s): %s\n", k, st.kind, filepath.Base(paths[st.file]), fail)
			break
		}
		serve = append(serve, msOf(tServe))
		image = append(image, msOf(tImage))
		gens = append(gens, gen)
		// The think time: wait for the daemon to go idle and sample the
		// machine's speed, then sleep out the rest.
		pause, err := r.pause(d, 1)
		if err != nil {
			return err
		}
		time.Sleep(editThink - pause)
	}
	elapsed := time.Since(loopStart)
	close(stopReads)
	<-readsDone
	r.attempted += reads.attempted
	r.failed += reads.failed
	cpu1, err := d.cpuTime()
	if err != nil {
		return err
	}
	traces, err := lastTraces(d, gen0)
	if err != nil {
		return err
	}
	srv50, srv99, err := d.serverQuantiles("line")
	if err != nil {
		return err
	}
	rss, err := d.hwmMB()
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	if err := r.speed.take(); err != nil {
		return err
	}
	done := len(serve)
	if done == 0 {
		return fmt.Errorf("no edit completed")
	}

	// The batch oracle: every 10th completed step and the final one are
	// recomputed from scratch, and the published image must be the batch
	// toolchain's image of the final routes, byte for byte.
	if err := checkAgainstBatch(r, local, paths, srcs, steps[:done], hash0, img); err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: edit: %v\n", err)
	}

	sd, id := summarize(serve), summarize(image)
	r.setE2E("ops_per_s", float64(done)/elapsed.Seconds())
	r.setE2E("op_p50_ms", sd.p50)
	r.setE2E("setup_s", median(setups))
	r.setE2E("rss_peak_mb", rss)
	r.setLayer("server.cpu_us_per_op", float64(cpu1-cpu0)/float64(time.Microsecond)/float64(done))
	r.notef("edit_to_serve_p50_ms %.2f, %s (n=%d edits in %.1fs; rename returned → first correct new answer)",
		sd.p50, sd.tailText("edit_to_serve", "ms"), sd.n, elapsed.Seconds())
	r.notef("edit_to_image_p50_ms %.2f (rename returned → new -o-db image in place)", id.p50)
	r.notef("setup_s %.3f s (routed -map -o-db exec to the default and %d from= vantages answering, median of %v)",
		median(setups), len(vantages), fmtList(setups, "%.3f"))
	ld, late := summarize(reads.lat), summarize(reads.late)
	r.notef("background reads: latency_p50_us %.1f, %s (n=%d at %d/s, timed from when due); %s",
		ld.p50, ld.tailText("latency", "us"), ld.n, readRate, late.tailText("loadgen.late", "us"))
	r.notef("routed.srv_p50_us %.2f, routed.srv_p99_us %.2f (/metrics line histogram)", srv50, srv99)
	stages := stageMedians(traces)
	var line strings.Builder
	for _, s := range stageOrder {
		fmt.Fprintf(&line, " %s=%.2f", s, stages[s])
	}
	r.notef("routed.stage medians (ms, %d /lastmap traces):%s", len(traces), line.String())

	if !r.trace {
		return nil
	}
	if err := sweep(r, sweepIn{inputs: ins, local: local, memServe: true, edits: ed}); err != nil {
		return err
	}
	// What the kick and the daemon's traced stages before the store
	// stage do not explain. The store stage is left out: it also covers
	// the from= vantage stores, which swap after the default store the
	// probe reads, so the default store's build and swap, the probe's
	// polling interval and scheduling make up the remainder.
	kick := r.layer["fswatch.kick_ms"]
	var unacc []float64
	for i, g := range gens {
		if tr, ok := traces[g]; ok {
			acc := kick
			for _, s := range tr.Stages {
				switch s.Name {
				case "read", "scan", "patch", "snapshot", "map":
					acc += msOf(s.Dur)
				}
			}
			unacc = append(unacc, serve[i]-acc)
		}
	}
	r.notef("edit.unaccounted_ms %.2f (median of edit_to_serve − kick − read…map over %d edits)", median(unacc), len(unacc))
	return nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pickVantages draws the from= vantages among the backbone hosts.
func pickVantages(r *rand.Rand, local string) []string {
	var out []string
	for _, i := range r.Perm(39) {
		h := fmt.Sprintf("host%d", i+1)
		if h != local {
			out = append(out, h)
		}
		if len(out) == numVantages {
			break
		}
	}
	return out
}

// inode returns path's inode number, 0 if it does not exist.
func inode(path string) uint64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		return st.Ino
	}
	return 0
}

// traceGen asks for the newest re-map generation's trace and returns its
// generation number.
func traceGen(c *lineConn) (uint64, error) {
	got, err := c.ask("trace")
	if err != nil {
		return 0, err
	}
	rest, ok := strings.CutPrefix(got, "ok gen=")
	if !ok {
		return 0, fmt.Errorf("trace: unexpected reply %q", got)
	}
	num, _, _ := strings.Cut(rest, " ")
	return strconv.ParseUint(num, 10, 64)
}

// lastTraces fetches the daemon's recorded generation traces newer than
// gen0, by generation.
func lastTraces(d *proc, gen0 uint64) (map[uint64]*obs.Trace, error) {
	body, err := d.httpGet("/lastmap?n=64")
	if err != nil {
		return nil, err
	}
	var ts []*obs.Trace
	if err := json.Unmarshal(body, &ts); err != nil {
		return nil, fmt.Errorf("/lastmap: %w", err)
	}
	out := make(map[uint64]*obs.Trace)
	for _, t := range ts {
		if t.Gen > gen0 {
			out[t.Gen] = t
		}
	}
	return out, nil
}

var stageOrder = []string{"read", "scan", "patch", "snapshot", "map", "store", "publish", "other"}

func stageMedians(traces map[uint64]*obs.Trace) map[string]float64 {
	by := make(map[string][]float64)
	for _, t := range traces {
		dur := make(map[string]time.Duration)
		for _, s := range t.Stages {
			dur[s.Name] = s.Dur
		}
		for _, name := range stageOrder {
			by[name] = append(by[name], msOf(dur[name]))
		}
	}
	out := make(map[string]float64)
	for name, v := range by {
		out[name] = median(v)
	}
	return out
}

// readLoad is the edit workload's background reader.
type readLoad struct {
	attempted, failed int64
	lat, late         []float64 // microseconds
}

// run sends one request every 1/readRate seconds, stop-and-wait, until
// stop closes. A reply is correct if it is the answer of the state
// before or after any edit in flight while it was asked.
func (l *readLoad) run(c *lineConn, qs []query, answers [][]string, cur *atomic.Int64, stop <-chan struct{}) {
	interval := time.Second / readRate
	start := time.Now()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		l.late = append(l.late, float64(time.Since(due))/float64(time.Microsecond))
		q := i % len(qs)
		k0 := cur.Load()
		got, err := c.ask(qs[q].line())
		l.lat = append(l.lat, float64(time.Since(due))/float64(time.Microsecond))
		k1 := cur.Load()
		l.attempted++
		if err != nil {
			l.failed++
			fmt.Fprintf(os.Stderr, "bench: background read: %v\n", err)
			return
		}
		ok := false
		for k := max(k0-1, 0); k <= k1 && !ok; k++ {
			ok = got == answers[k][q]
		}
		if !ok {
			l.failed++
			if l.failed <= 3 {
				fmt.Fprintf(os.Stderr, "bench: background read %q answered %q, want %q\n", qs[q].line(), got, answers[k1][q])
			}
		}
	}
}

// checkAgainstBatch recomputes every 10th completed step and the last
// one with a fresh batch run and compares digests with the oracle's,
// then checks the daemon's final image against the batch compile.
func checkAgainstBatch(r *runner, local string, paths, srcs []string, done []*editStep, hash0 uint64, img string) error {
	cur := append([]string(nil), srcs...)
	var final []printer.Entry
	checked := 0
	for k := 0; k <= len(done); k++ {
		if k > 0 {
			cur[done[k-1].file] = done[k-1].content
		}
		if k%10 != 0 && k != len(done) {
			continue
		}
		checked++
		var ins []pathalias.Input
		for i := range cur {
			ins = append(ins, pathalias.Input{Name: paths[i], Text: cur[i]})
		}
		res, err := pathalias.Run(pathalias.Options{LocalHost: local}, ins...)
		if err != nil {
			return fmt.Errorf("batch run at step %d: %w", k, err)
		}
		es := make([]printer.Entry, len(res.Routes))
		for i, rt := range res.Routes {
			es[i] = printer.Entry{Host: rt.Host, Route: rt.Format, Cost: cost.Cost(rt.Cost)}
		}
		want := hash0
		if k > 0 {
			want = done[k-1].hash
		}
		if h := entriesHash(es); h != want {
			return fmt.Errorf("step %d: the incremental engine's routes differ from a fresh batch run", k)
		}
		final = es
	}
	rs := make([]resolver.Entry, len(final))
	for i, e := range final {
		rs[i] = resolver.Entry{Host: e.Host, Route: e.Route, Cost: e.Cost}
	}
	want, err := rdb.Compile(rs, resolver.Options{})
	if err != nil {
		return err
	}
	got, err := os.ReadFile(img)
	if err != nil {
		return err
	}
	if string(got) != string(want) {
		return fmt.Errorf("the published image (%d bytes) differs from the batch compile of the final routes (%d bytes)", len(got), len(want))
	}
	r.notef("batch oracle: %d steps recomputed from scratch matched; final image byte-identical to rdb.Compile (%d bytes)",
		checked, len(got))
	return nil
}
