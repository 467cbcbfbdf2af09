package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"pathalias/internal/routedb"
)

const (
	// lookupDepth is the pipeline depth of the lookup client: a mailer
	// flushing its queue writes many requests before reading a reply.
	// It writes them lookupChunk at a time as replies free room, so the
	// daemon always has requests waiting and neither side idles through
	// the other's wake-up.
	lookupDepth = 64
	lookupChunk = 16
	// lookupRing is how many distinct requests the client cycles
	// through, a multiple of lookupDepth.
	lookupRing = 1 << 16
	// lookupRingsPerSecond is how many passes over the ring a run
	// measures per requested second (786k requests; the calibration
	// machine serves 0.7–0.9 M/s). Whole passes, so every run measures
	// each request of the ring equally often.
	lookupRingsPerSecond = 12
	// warmupRings passes run unmeasured first, so lazy set-up and page
	// faults on first touch are not charged to the measurement.
	warmupRings = 4
)

// runLookup serves the compiled image of a 200k-host map with routed -db
// and drives it with one connection keeping 64 requests in flight in a
// closed loop: Zipf-skewed exact hits, domain-suffix hits and misses.
// Only the resolver and the protocol framing work; nothing is parsed or
// mapped. It is the workload on which every map-side optimization must
// change nothing.
func runLookup(r *runner) error {
	ins, local := r.generate(bigMap)
	paths, err := writeMap(r.path("src"), ins)
	if err != nil {
		return err
	}
	img, txt := r.path("routes.rdb"), r.path("routes.txt")
	wall, _, err := runTool("pathalias", r.pathalias(), r.path("pathalias.log"),
		append([]string{"-l", local, "-c", "-o-db", img, "-o", txt}, paths...)...)
	if err != nil {
		return err
	}

	// The oracle: the same routes loaded from the text output into an
	// in-memory resolver — a different backing from the mapped image the
	// daemon serves.
	f, err := os.Open(txt)
	if err != nil {
		return err
	}
	oracle, err := routedb.Load(f)
	f.Close()
	if err != nil {
		return err
	}
	var names []string
	for _, e := range oracle.Entries() {
		names = append(names, e.Host)
	}
	stream := queryStream(newRand(r.seed, "lookup"), names, lookupRing)
	var reqs []byte
	offs := make([]int, 0, lookupRing+1)
	want := make([][]byte, lookupRing)
	var kinds [numKinds]int
	for i, q := range stream {
		offs = append(offs, len(reqs))
		reqs = append(reqs, q.line()...)
		reqs = append(reqs, '\n')
		want[i] = []byte(reply(oracle, q.dest, q.user))
		kinds[q.kind]++
	}
	offs = append(offs, len(reqs))
	r.notef("set-up: %d routes from %d map files, compiled by pathalias in %.2fs; %d requests (%d exact, %d suffix, %d miss)",
		oracle.Len(), len(paths), wall.Seconds(), len(stream), kinds[kindExact], kinds[kindSuffix], kinds[kindMiss])
	oracle = nil

	probe := check{stream[0].line(), string(want[0])}
	d, setups, err := r.setUp(7, func(i int) (*proc, time.Duration, error) {
		p, err := startDaemon(r.routed(), r.path(fmt.Sprintf("routed%d.log", i)), true, "-db", img)
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
	conn.c.SetDeadline(time.Now().Add(capPerWorkload))
	// pump sends the ring rings times, keeping lookupDepth requests in
	// flight: a writer goroutine sends them in chunks as replies free
	// room, this goroutine reads and checks the replies. rec, when set,
	// receives each reply's latency from when its chunk was written.
	pump := func(rings int, rec *hist) error {
		room := make(chan struct{}, lookupDepth/lookupChunk)
		for i := 0; i < cap(room); i++ {
			room <- struct{}{}
		}
		type chunk struct {
			pos  int
			sent time.Time
		}
		chunks := make(chan chunk, cap(room))
		werr := make(chan error, 1)
		go func() {
			defer close(chunks)
			for i := 0; i < rings*lookupRing; i += lookupChunk {
				p := i % lookupRing
				<-room
				t := time.Now()
				if _, err := conn.bw.Write(reqs[offs[p]:offs[p+lookupChunk]]); err != nil {
					werr <- err
					return
				}
				if err := conn.bw.Flush(); err != nil {
					werr <- err
					return
				}
				chunks <- chunk{p, t}
			}
			werr <- nil
		}()
		var rerr error
		for c := range chunks {
			if rerr != nil {
				room <- struct{}{} // drain, so the writer reaches its failing write
				continue
			}
			for j := 0; j < lookupChunk; j++ {
				line, err := conn.br.ReadSlice('\n')
				if err != nil {
					r.attempted += int64(lookupChunk - j)
					r.failed += int64(lookupChunk - j)
					rerr = fmt.Errorf("reading replies: %w", err)
					conn.c.Close() // unblocks the writer
					break
				}
				if rec != nil {
					rec.add(time.Since(c.sent))
				}
				r.attempted++
				if !bytes.Equal(line[:len(line)-1], want[c.pos+j]) {
					r.failed++
					if r.failed <= 3 {
						fmt.Fprintf(os.Stderr, "bench: lookup: %q answered %q, want %q\n",
							stream[c.pos+j].line(), line[:len(line)-1], want[c.pos+j])
					}
				}
			}
			room <- struct{}{}
		}
		if err := <-werr; rerr == nil {
			rerr = err
		}
		return rerr
	}
	if err := pump(warmupRings, nil); err != nil {
		return err
	}
	warmAttempted := r.attempted
	cpu0, err := d.cpuTime()
	if err != nil {
		return err
	}
	// The measured passes run in segments of one second's worth, with
	// the pipeline drained and the machine's speed sampled between two
	// segments. Throughput is the median of the segments' rates, which a
	// single stall cannot drag.
	lat := &hist{}
	var rates []float64
	for range r.perSecond(1) {
		t := time.Now()
		if err := pump(lookupRingsPerSecond, lat); err != nil {
			return err
		}
		rates = append(rates, float64(lookupRingsPerSecond*lookupRing)/time.Since(t).Seconds())
		if _, err := r.pause(d, 2); err != nil {
			return err
		}
	}
	cpu1, err := d.cpuTime()
	if err != nil {
		return err
	}
	measured := r.attempted - warmAttempted
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

	rate := median(rates)
	ld := lat.dist(time.Microsecond)
	r.setE2E("ops_per_s", rate)
	r.setE2E("op_p50_ms", ld.p50/1000)
	r.setE2E("setup_s", median(setups))
	r.setE2E("rss_peak_mb", rss)
	r.setLayer("server.cpu_us_per_op", float64(cpu1-cpu0)/float64(time.Microsecond)/float64(measured))
	r.notef("throughput_rps %.0f req/s (median of segments %s, %d requests)", rate, fmtList(rates, "%.0f"), measured)
	r.notef("latency_p50_us %.1f, %s (n=%d, depth %d: chunk write to each reply)", ld.p50, ld.tailText("latency", "us"), ld.n, lookupDepth)
	r.notef("setup_s %.4f s (routed -db exec to first correct answer, median of %v)", median(setups), fmtList(setups, "%.4f"))
	r.notef("routed.srv_p50_us %.2f, routed.srv_p99_us %.2f (/metrics line histogram, batch-mean accounting)", srv50, srv99)
	r.notef("routed.cpu_ns_per_req %.0f ns (utime+stime over the measured passes)", float64(cpu1-cpu0)/float64(measured))

	if !r.trace {
		return nil
	}
	return sweep(r, sweepIn{inputs: ins, local: local, stream: stream})
}
