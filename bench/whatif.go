package main

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"pathalias/internal/whatif"
)

const (
	// questionsPerSecond is how many questions a run asks per requested
	// second (the calibration machine answers about 180 a second).
	questionsPerSecond = 160
	// whatifReplay is how many of them the traced replay asks again
	// in-process.
	whatifReplay = 160
	// speedEvery is how many questions apart the machine's speed is
	// sampled while the daemon idles between two of them.
	speedEvery = 64
)

// runWhatif serves the paper-scale map with routed -map and asks one
// what-if question after another on one connection, stop-and-wait:
// "overlay=<spec> dest user", with specs drawn skewed from a pool of
// 256 real-link edits. Every third question is cold — its overlay is
// not among the 32 the daemon caches, so it is a private mapping run
// over a patched snapshot — and the rest are cache hits. Nothing is
// parsed or re-mapped.
func runWhatif(r *runner) error {
	ins, local := r.generate(paperMap)
	paths, err := writeMap(r.path("src"), ins)
	if err != nil {
		return err
	}
	srcs := make([]string, len(ins))
	for i, in := range ins {
		srcs[i] = in.Src
	}
	t := time.Now()
	ed, err := newEditor(r.tr, newRand(r.seed, "whatif-edits"), paths, srcs, local, nil)
	if err != nil {
		return err
	}
	defer ed.close()
	pool := specPool(newRand(r.seed, "specs"), allLinks(srcs), specPoolSize)
	qs := whatifStream(newRand(r.seed, "questions"), len(pool), whatif.DefaultMaxCached, ed.hosts, r.perSecond(questionsPerSecond))
	lines, want, errs := whatifOracle(ed, pool, qs)
	r.notef("set-up: %d routes, %d specs over real links, %d questions answered by the in-process evaluator in %.2fs (%d expect an error reply)",
		len(ed.cur), len(pool), len(qs), time.Since(t).Seconds(), errs)

	base := query{dest: ed.hosts[0], user: users[0]}
	probe := check{base.line(), replies(ed.cur, []query{base})[0]}
	args := append([]string{"-map", "-l", local}, paths...)
	d, setups, err := r.setUp(5, func(i int) (*proc, time.Duration, error) {
		p, err := startDaemon(r.routed(), r.path(fmt.Sprintf("routed%d.log", i)), true, args...)
		if err != nil {
			return nil, 0, err
		}
		dur, err := awaitAnswers(p, []check{probe})
		return p, dur, err
	})
	if err != nil {
		return err
	}
	defer d.stop()
	conn, err := dialLine(d.tcp)
	if err != nil {
		return err
	}
	defer conn.close()

	cpu0, err := d.cpuTime()
	if err != nil {
		return err
	}
	var lat []float64 // milliseconds
	var elapsed time.Duration
	n := 0
	for ; n < len(qs); n++ {
		t0 := time.Now()
		got, err := conn.ask(lines[n])
		took := time.Since(t0)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "bench: whatif: %q: %v\n", lines[n], err)
			n++
			break
		}
		lat = append(lat, msOf(took))
		elapsed += took
		if got != want[n] {
			r.failed++
			if r.failed <= 3 {
				fmt.Fprintf(os.Stderr, "bench: whatif: %q answered %q, want %q\n", lines[n], got, want[n])
			}
		}
		if (n+1)%speedEvery == 0 {
			if _, err := r.pause(d, 1); err != nil {
				return err
			}
		}
	}
	cpu1, err := d.cpuTime()
	if err != nil {
		return err
	}
	srv50, srv99, err := d.serverQuantiles("whatif")
	if err != nil {
		return err
	}
	body, err := d.httpGet("/stats")
	if err != nil {
		return err
	}
	var stats struct {
		WhatIf whatif.Stats `json:"whatif"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		return fmt.Errorf("/stats: %w", err)
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

	cold, err := coldQuestions(pool, qs[:n])
	if err != nil {
		return err
	}
	var coldLat, hitLat []float64
	misses := 0
	for i, l := range lat {
		if cold[i] {
			coldLat = append(coldLat, l)
			misses++
		} else {
			hitLat = append(hitLat, l)
		}
	}
	// The cold and cached split below comes from the replay, so the
	// replay must agree with the daemon's own counts: with one question
	// in flight at a time they are equal.
	if stats.WhatIf.Hits != uint64(len(lat)-misses) || stats.WhatIf.Misses != uint64(misses) {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: whatif: the daemon counted %d overlay-cache hits and %d misses, the %d-entry LRU replay %d and %d\n",
			stats.WhatIf.Hits, stats.WhatIf.Misses, whatif.DefaultMaxCached, len(lat)-misses, misses)
	}
	// The rate is over the whole run's round trips (the speed samples'
	// pauses left out), not a median of 1-s windows: with the cold
	// questions taking hundreds of times longer than the rest, a
	// window's count says more about where they fell than about the
	// build.
	rate := float64(len(lat)) / elapsed.Seconds()
	ld := summarize(lat)
	r.setE2E("ops_per_s", rate)
	// The latency is a new question's, the median over the cold ones:
	// the latencies are two modes hundreds of times apart, and the
	// median of all questions would be the 75th percentile of the
	// cached ones, which loopback wake-ups, not the build, decide.
	r.setE2E("op_p50_ms", median(coldLat))
	r.setE2E("setup_s", median(setups))
	r.setE2E("rss_peak_mb", rss)
	r.setLayer("server.cpu_us_per_op", float64(cpu1-cpu0)/float64(time.Microsecond)/float64(len(lat)))
	r.notef("throughput_rps %.1f questions/s (%d questions in %.2fs)", rate, len(lat), elapsed.Seconds())
	r.notef("latency_p50_us %.1f, %s (n=%d); cold p50 %.2f ms (n=%d), cached p50 %.1f µs (n=%d)",
		ld.p50*1000, ld.tailText("latency", "ms"), ld.n, median(coldLat), len(coldLat), median(hitLat)*1000, len(hitLat))
	r.notef("setup_s %.3f s (routed -map exec to first correct answer, median of %v)", median(setups), fmtList(setups, "%.3f"))
	r.notef("routed.srv_p50_us %.1f, routed.srv_p99_us %.1f (/metrics whatif histogram)", srv50, srv99)
	r.notef("overlay cache: daemon counted %d hits / %d misses; a %d-entry LRU over the same questions predicts %d / %d",
		stats.WhatIf.Hits, stats.WhatIf.Misses, whatif.DefaultMaxCached, len(lat)-misses, misses)

	if !r.trace {
		return nil
	}
	st, err := replayWhatif(r.tr, ed.eng, local, pool, qs[:min(len(qs), whatifReplay)])
	if err != nil {
		return err
	}
	for k := 1; k <= probeEdits; k++ {
		if _, err := ed.step(k); err != nil {
			return err
		}
	}
	return sweep(r, sweepIn{inputs: ins, local: local, memServe: true, edits: ed, whatif: &st})
}

// whatifOracle answers every question with the in-process evaluator and
// returns each request line and the reply it must get. A destination
// unreachable under its overlay is replaced by the question's next
// alternate. Questions are grouped by spec and evaluated on two
// goroutines, so each overlay is mapped once.
func whatifOracle(ed *editor, pool []string, qs []wquery) (lines, want []string, errs int) {
	lines, want = make([]string, len(qs)), make([]string, len(qs))
	bySpec := make(map[int][]int)
	for i, q := range qs {
		bySpec[q.spec] = append(bySpec[q.spec], i)
	}
	specs := make([]int, 0, len(bySpec))
	for s := range bySpec {
		specs = append(specs, s)
	}
	sort.Ints(specs)
	ev := whatif.New(ed.eng, whatif.Options{MaxCached: 4})
	work := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				for _, i := range bySpec[s] {
					q := qs[i]
					var lastErr error
					for _, dest := range q.dests {
						addr, err := ev.Resolve(ed.local, pool[s], dest, q.user)
						lines[i] = "overlay=" + pool[s] + " " + dest + " " + q.user
						if err == nil {
							want[i], lastErr = "ok "+addr, nil
							break
						}
						lastErr = err
					}
					if lastErr != nil {
						lines[i] = "overlay=" + pool[s] + " " + q.dests[0] + " " + q.user
						want[i] = "err " + lastErr.Error()
						mu.Lock()
						errs++
						mu.Unlock()
					}
				}
			}
		}()
	}
	for _, s := range specs {
		work <- s
	}
	close(work)
	wg.Wait()
	return lines, want, errs
}

// coldQuestions replays the daemon's overlay cache — a 32-entry LRU
// keyed by canonical spec — over the questions asked, and reports which
// were misses.
func coldQuestions(pool []string, qs []wquery) ([]bool, error) {
	keys := make([]string, len(pool))
	for i, s := range pool {
		sp, err := whatif.ParseSpec(s)
		if err != nil {
			return nil, err
		}
		keys[i] = sp.Canonical()
	}
	lru := list.New()
	at := make(map[string]*list.Element)
	cold := make([]bool, len(qs))
	for i, q := range qs {
		k := keys[q.spec]
		if el, ok := at[k]; ok {
			lru.MoveToFront(el)
			continue
		}
		cold[i] = true
		at[k] = lru.PushFront(k)
		if lru.Len() > whatif.DefaultMaxCached {
			delete(at, lru.Remove(lru.Back()).(string))
		}
	}
	return cold, nil
}
