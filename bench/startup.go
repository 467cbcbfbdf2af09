package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"pathalias"
	"pathalias/internal/cost"
	"pathalias/internal/printer"
	"pathalias/internal/rdb"
	"pathalias/internal/resolver"
)

// cyclesPerSecond is how many start-up cycles a run makes per requested
// second (a cycle takes about 1.6 s on the calibration machine).
const cyclesPerSecond = 0.5

// runStartup repeats a fixed number of start-up cycles. Each cycle
// runs four journeys, each timed from exec: the batch compile
// (pathalias -c -o-db over the 50k-host map, to exit); routed -db on the
// 200k-host image, to its first correct answer; a warm start of
// routed -map -o-db on the 50k map from the image the compile wrote;
// and a cold start of routed -map on the 50k map. Parsing, mapping,
// printing, image validation and index builds do the work, and the
// resolver answers once per start.
func runStartup(r *runner) error {
	ins, local := r.generate(editMap)
	paths, err := writeMap(r.path("src"), ins)
	if err != nil {
		return err
	}
	big, bigLocal := r.generate(bigMap)
	bigPaths, err := writeMap(r.path("big"), big)
	if err != nil {
		return err
	}
	big = nil
	bigImg, bigTxt := r.path("big.rdb"), r.path("big.txt")
	t := time.Now()
	if _, _, err := runTool("pathalias", r.pathalias(), r.path("pathalias-big.log"),
		append([]string{"-l", bigLocal, "-c", "-o-db", bigImg, "-o", bigTxt}, bigPaths...)...); err != nil {
		return err
	}
	os.RemoveAll(r.path("big"))
	bigProbe, err := textProbe(bigTxt, newRand(r.seed, "startup-probe-big"))
	if err != nil {
		return err
	}

	// The oracle: an in-process batch run over the same 50k map gives
	// the answer every start must serve first, and the image every
	// compile must write.
	var pins []pathalias.Input
	for i, in := range ins {
		pins = append(pins, pathalias.Input{Name: paths[i], Text: in.Src})
	}
	res, err := pathalias.Run(pathalias.Options{LocalHost: local}, pins...)
	if err != nil {
		return err
	}
	entries := make([]printer.Entry, len(res.Routes))
	rs := make([]resolver.Entry, len(res.Routes))
	var hosts []string
	for i, rt := range res.Routes {
		entries[i] = printer.Entry{Host: rt.Host, Route: rt.Format, Cost: cost.Cost(rt.Cost)}
		rs[i] = resolver.Entry{Host: rt.Host, Route: rt.Format, Cost: cost.Cost(rt.Cost)}
		if strings.HasPrefix(rt.Host, "host") {
			hosts = append(hosts, rt.Host)
		}
	}
	wantImage, err := rdb.Compile(rs, resolver.Options{})
	if err != nil {
		return err
	}
	pr := newRand(r.seed, "startup-probe")
	q := query{dest: hosts[pr.Intn(len(hosts))], user: users[pr.Intn(len(users))]}
	probe := check{q.line(), replies(entries, []query{q})[0]}
	r.notef("set-up: %d routes (50k map), 200k image compiled, oracle run in %.2fs", len(entries), time.Since(t).Seconds())
	res, entries, rs = nil, nil, nil

	// Set-up time: routed -db on the 200k image, the first daemon of
	// every cycle.
	d, setups, err := r.setUp(7, func(i int) (*proc, time.Duration, error) {
		p, err := startDaemon(r.routed(), r.path(fmt.Sprintf("setup%d.log", i)), false, "-db", bigImg)
		if err != nil {
			return nil, 0, err
		}
		dur, err := awaitAnswers(p, []check{bigProbe})
		return p, dur, err
	})
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}

	cimg, ctxt := r.path("c.rdb"), r.path("c.txt")
	warmImg := r.path("warm", "routes.rdb")
	if err := os.MkdirAll(r.path("warm"), 0o755); err != nil {
		return err
	}
	var cycles, compile, rdbStart, warmStart, coldStart, rss, cpu []float64
	var first []byte
	start := time.Now()
	var paused time.Duration // sampling the machine's speed between cycles
	for range r.perSecond(cyclesPerSecond) {
		os.Remove(cimg)
		wall, used, err := runTool("pathalias", r.pathalias(), r.path("pathalias.log"),
			append([]string{"-l", local, "-c", "-o-db", cimg, "-o", ctxt}, paths...)...)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "bench: startup: %v\n", err)
			break
		}
		img, err := os.ReadFile(cimg)
		if err != nil {
			return err
		}
		if first == nil {
			first = img
		} else if !bytes.Equal(img, first) {
			r.failed++
			fmt.Fprintf(os.Stderr, "bench: startup: cycle %d compiled a different image\n", len(cycles)+1)
		}
		if err := copyFile(warmImg, cimg); err != nil {
			return err
		}
		steps := []struct {
			args  []string
			probe check
			kill  bool // a warm daemon's graceful stop would first finish its background map
		}{
			{[]string{"-db", bigImg}, bigProbe, false},
			{append([]string{"-map", "-l", local, "-o-db", warmImg}, paths...), probe, true},
			{append([]string{"-map", "-l", local}, paths...), probe, false},
		}
		times := []float64{wall.Seconds()}
		peak := 0.0
		for i, s := range steps {
			r.attempted++
			p, err := startDaemon(r.routed(), r.path(fmt.Sprintf("cycle-routed%d.log", i)), false, s.args...)
			if err != nil {
				return err
			}
			dur, err := awaitAnswers(p, []check{s.probe})
			if err != nil {
				p.kill()
				r.failed++
				fmt.Fprintf(os.Stderr, "bench: startup: %v\n", err)
				break
			}
			if hw, err := p.hwmMB(); err == nil {
				peak = max(peak, hw)
			}
			if s.kill {
				err = p.kill()
			} else {
				err = p.stop()
			}
			if err != nil {
				return err
			}
			used += p.cpuUsed()
			times = append(times, dur.Seconds())
		}
		if len(times) != 1+len(steps) {
			break
		}
		compile = append(compile, times[0])
		rdbStart = append(rdbStart, times[1]*1000)
		warmStart = append(warmStart, times[2]*1000)
		coldStart = append(coldStart, times[3]*1000)
		cycles = append(cycles, (times[0]+times[1]+times[2]+times[3])*1000)
		rss = append(rss, peak)
		cpu = append(cpu, float64(used)/float64(time.Microsecond))
		pause, err := r.pause(nil, 3)
		if err != nil {
			return err
		}
		paused += pause
	}
	elapsed := time.Since(start) - paused
	if err := r.speed.take(); err != nil {
		return err
	}
	if len(cycles) == 0 {
		return fmt.Errorf("no start-up cycle completed")
	}
	if !bytes.Equal(first, wantImage) {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: startup: pathalias -o-db wrote %d bytes, not the %d-byte rdb.Compile image of the batch routes\n",
			len(first), len(wantImage))
	}

	r.setE2E("ops_per_s", float64(len(cycles))/elapsed.Seconds())
	r.setE2E("op_p50_ms", median(cycles))
	r.setE2E("setup_s", median(setups))
	r.setE2E("rss_peak_mb", median(rss))
	r.setLayer("server.cpu_us_per_op", median(cpu))
	r.notef("cycles: %d in %.1fs, cycle p50 %.1f ms (compile + three starts)", len(cycles), elapsed.Seconds(), median(cycles))
	r.notef("compile_s %.3f, start_rdb_ms %.1f, start_warm_ms %.1f, start_cold_ms %.1f (medians, exec to exit or first correct answer)",
		median(compile), median(rdbStart), median(warmStart), median(coldStart))
	r.notef("setup_s %.4f s (routed -db on the 200k image, median of %v); images byte-identical across cycles and to rdb.Compile",
		median(setups), fmtList(setups, "%.4f"))

	if !r.trace {
		return nil
	}
	return sweep(r, sweepIn{inputs: ins, local: local})
}

// textProbe picks a seeded host from a pathalias -c route file and
// returns the query for it with the answer a daemon serving those routes
// must give.
func textProbe(path string, r *rand.Rand) (check, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return check{}, err
	}
	var rows []string
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Split(line, "\t")
		if len(f) == 3 && strings.HasPrefix(f[1], "host") {
			rows = append(rows, line)
		}
	}
	if len(rows) == 0 {
		return check{}, fmt.Errorf("no host routes in %s", path)
	}
	f := strings.Split(rows[r.Intn(len(rows))], "\t")
	user := users[r.Intn(len(users))]
	return check{f[1] + " " + user, "ok " + strings.Replace(f[2], "%s", user, 1)}, nil
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
