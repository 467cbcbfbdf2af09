// Command bench is the repository's benchmark: it measures the four
// journeys pathalias users wait on — looking up a route, an edit to a
// map source until the new route is served, a what-if question, and
// starting up — end to end against the real binaries, and then layer by
// layer in a separate traced replay.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload lookup --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --seed 2            # every workload in turn
//
// It builds routed and pathalias from the tree under test, generates
// every input from the seed, drives the daemons over loopback, checks
// every answer, and prints each metric by name and unit. The last line
// of standard output is a JSON object: {"correct", "attempted",
// "failed", "metrics"}, with the end-to-end metrics, or with --trace 1
// the per-layer metrics. See README.md in this directory.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"pathalias/internal/mapgen"
	"pathalias/internal/parser"
)

// A workload is one set of inputs and one traffic shape; why says what
// it isolates.
type workload struct {
	name, why string
	run       func(*runner) error
}

var workloads = []workload{
	{"lookup", "pipelined lookups on a 200k-host image, assumed mix (Zipf s=1.1; 80% exact, 15% suffix, 5% miss): only resolver and framing work, so map-side changes must leave it unchanged", runLookup},
	{"edit", "edits, assumed mix (50% cost, 25% new host, 25% removed link), until the new route is served, reads alongside: incremental engine, rescans, store rebuilds, compile and publish work", runEdit},
	{"whatif", "overlay questions on the paper-scale map, specs Zipf-drawn from 256 real-link edits, every third one not in the 32-entry cache: detached mapping runs and the cache do the work, nothing is re-parsed", runWhatif},
	{"startup", "batch compile, then rdb, warm and cold daemon starts to the first answer: parse, map, print, image validation and index builds do the work", runStartup},
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload: the workload's operation is one lookup, one edit until
// served, one what-if question, or one start-up cycle.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are single-layer measurements from the traced replay (and,
// for server CPU, the daemon run), reported by every workload.
var perLayer = []metricSpec{
	{"parser.parse_ms", "ms"},
	{"parser.scan_file_ms", "ms"},
	{"mapper.run_ms", "ms"},
	{"mapper.relaxations", "count"},
	{"mapper.extractions", "count"},
	{"printer.routes_ms", "ms"},
	{"routedb.build_ms", "ms"},
	{"routedb.open_binary_ms", "ms"},
	{"routedb.load_text_ms", "ms"},
	{"rdb.compile_ms", "ms"},
	{"rdb.image_mb", "MB"},
	{"atomicfile.publish_ms", "ms"},
	{"fswatch.kick_ms", "ms"},
	{"resolver.exact_ns", "ns"},
	{"resolver.suffix_ns", "ns"},
	{"resolver.miss_ns", "ns"},
	{"remap.update_p50_ms", "ms"},
	{"remap.scan_ms", "ms"},
	{"remap.patch_ms", "ms"},
	{"remap.snapshot_ms", "ms"},
	{"remap.map_ms", "ms"},
	{"remap.route_ms", "ms"},
	{"whatif.cold_ms", "ms"},
	{"whatif.cached_us", "us"},
	{"whatif.hit_ratio", "ratio"},
	{"server.cpu_us_per_op", "us"},
	{"trace.overhead_pct", "%"},
}

// capPerWorkload is the hard limit on one workload's run, under the
// 180 s every run must finish in.
const capPerWorkload = 170 * time.Second

// buildDir is where run.sh and the benchmark put everything they build
// and write, relative to the repository root.
const buildDir = "bench/.build"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fset := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fset.String("workload", "", "workload to run: lookup, edit, whatif or startup (default: all, in turn)")
		seed    = fset.Int64("seed", 1, "seed every generated input is drawn from")
		seconds = fset.Int("seconds", 12, "run length: each workload measures a fixed amount of work that takes about this many seconds on the calibration machine")
		traced  = fset.Int("trace", 0, "1 = also run the traced in-process replay and report the per-layer metrics")
	)
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be ≥1 and --trace 0 or 1")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "" || w.name == *name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	dir, err := findRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	out := filepath.Join(dir, buildDir)
	bin := filepath.Join(out, "bin")
	if err := buildBinaries(dir, bin); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printRecord(os.Stdout, dir, *seed, *seconds, *traced)

	code := 0
	for _, w := range todo {
		r := &runner{
			bin: bin, seed: *seed, trace: *traced == 1,
			seconds: time.Duration(*seconds) * time.Second,
			work:    filepath.Join(out, "work", fmt.Sprintf("%s-s%d-%d", w.name, *seed, os.Getpid())),
			spans:   filepath.Join(out, "trace", fmt.Sprintf("%s-s%d.json", w.name, *seed)),
		}
		if c := r.execute(w); c > code {
			code = c
		}
	}
	return code
}

// execute runs one workload under its time cap and prints its report
// and result line.
func (r *runner) execute(w workload) int {
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(r.work)
	if r.trace {
		r.tr = newTracer()
	}
	r.speed = newSpeedProbe()
	timer := time.AfterFunc(capPerWorkload, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded its %v cap; stopping\n", w.name, capPerWorkload)
		stopAll()
		os.Exit(3)
	})
	defer timer.Stop()
	fmt.Printf("== %s (seed %d, %v, trace %v): %s\n", w.name, r.seed, r.seconds, r.trace, w.why)
	start := time.Now()
	err := w.run(r)
	stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if r.trace {
		if err := os.MkdirAll(filepath.Dir(r.spans), 0o755); err == nil {
			err = r.tr.write(r.spans)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("%s: %d spans written to %s\n", w.name, len(r.tr.spans), r.spans)
	}
	r.normalize()
	r.printReport(w.name)
	fmt.Printf("%s: finished in %.1fs\n", w.name, time.Since(start).Seconds())
	line, err := r.resultLine()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(line)
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations got a wrong or missing answer\n", w.name, r.failed, r.attempted)
		return 1
	}
	return 0
}

// runner carries one workload run's settings and collects its results.
type runner struct {
	bin, work string
	spans     string // span file path
	seed      int64
	seconds   time.Duration // run length; see perSecond
	trace     bool
	tr        *tracer // the replay's spans; nil when untraced
	small     bool    // every map is mapgen.Small (the package tests' smoke run)
	speed     *speedProbe

	attempted, failed int64
	e2e, layer        map[string]float64
	report            []string // workload-specific lines
}

func (r *runner) setE2E(name string, v float64) {
	if r.e2e == nil {
		r.e2e = make(map[string]float64)
	}
	r.e2e[name] = v
}

func (r *runner) setLayer(name string, v float64) {
	if r.layer == nil {
		r.layer = make(map[string]float64)
	}
	r.layer[name] = v
}

// normalize restates the timed end-to-end metrics at the reference
// machine speed (see speed.go): on a machine slowed to speed s, times
// are multiplied and rates divided by s^speedExponent. The raw values
// stay in the report.
func (r *runner) normalize() {
	sp := r.speed.speed()
	f := math.Pow(sp, speedExponent)
	r.notef("machine speed %.3f (reference kernel median %.2f ms over %d runs, nominal %v; %d pauses found the daemon still busy); raw ops_per_s %.6g, op_p50_ms %.6g, setup_s %.6g",
		sp, median(r.speed.samples)/1e6, len(r.speed.samples), refNominal, r.speed.busy, r.e2e["ops_per_s"], r.e2e["op_p50_ms"], r.e2e["setup_s"])
	r.e2e["ops_per_s"] /= f
	r.e2e["op_p50_ms"] *= f
	r.e2e["setup_s"] *= f
}

// notef adds a line to the workload's report.
func (r *runner) notef(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// generate draws the map of one size from the run's seed.
func (r *runner) generate(size func(int64) mapgen.Config) ([]parser.Input, string) {
	cfg := size(r.seed)
	if r.small {
		cfg = mapgen.Small()
		cfg.Seed = r.seed
	}
	return mapgen.Generate(cfg)
}

// path returns a path inside the run's work directory.
func (r *runner) path(elem ...string) string {
	return filepath.Join(append([]string{r.work}, elem...)...)
}

func (r *runner) routed() string    { return filepath.Join(r.bin, "routed") }
func (r *runner) pathalias() string { return filepath.Join(r.bin, "pathalias") }

// setUp samples the machine's speed while nothing of the system under
// test runs, then starts the workload's daemon n times, each time timing
// exec to first correct answer, stops all but the last, and returns the
// last with every set-up time in seconds. setup_s is their median; the
// workloads set up seven times where a start takes milliseconds and
// fewer where it takes seconds.
func (r *runner) setUp(n int, start func(i int) (*proc, time.Duration, error)) (*proc, []float64, error) {
	if err := r.speed.take(); err != nil {
		return nil, nil, err
	}
	var times []float64
	var last *proc
	for i := 0; i < n; i++ {
		p, dur, err := start(i)
		if err != nil {
			if p != nil {
				p.kill()
			}
			return nil, nil, err
		}
		times = append(times, dur.Seconds())
		if i < n-1 {
			if err := p.stop(); err != nil {
				return nil, nil, err
			}
			continue
		}
		last = p
	}
	return last, times, nil
}

// perSecond returns how many operations a run measures: rate for each
// requested second. Every workload measures a fixed amount of work, the
// same on every commit, so a change and its parent are scored on the
// same inputs; each rate is set so that a run measures about --seconds
// on the machine the benchmark was calibrated on. A faster build
// finishes sooner, and capPerWorkload stops a run that never does.
func (r *runner) perSecond(rate float64) int {
	return max(1, int(math.Round(rate*r.seconds.Seconds())))
}

func (r *runner) printReport(name string) {
	for _, line := range r.report {
		fmt.Printf("%s: %s\n", name, line)
	}
	print := func(title string, specs []metricSpec, vals map[string]float64) {
		fmt.Printf("%s: %s\n", name, title)
		for _, m := range specs {
			if v, ok := vals[m.name]; ok {
				fmt.Printf("%s:   %-24s %14.6g %s\n", name, m.name, v, m.unit)
			}
		}
	}
	print("end-to-end", endToEnd, r.e2e)
	if r.trace {
		print("per layer", perLayer, r.layer)
	}
}

// resultLine renders the final JSON line: the end-to-end metrics, or
// with tracing the per-layer ones. Every metric the mode promises must
// be present and finite.
func (r *runner) resultLine() (string, error) {
	specs, vals := endToEnd, r.e2e
	if r.trace {
		specs, vals = perLayer, r.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, m := range specs {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = value{v, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, metrics})
	return string(b), err
}

// findRoot returns the repository root: the nearest directory at or
// above the working directory that holds the pathalias module.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if isRoot(d) {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no pathalias checkout (go.mod and cmd/routed) at or above %s", wd)
		}
	}
}

func isRoot(d string) bool {
	b, err := os.ReadFile(filepath.Join(d, "go.mod"))
	if err != nil || !strings.HasPrefix(string(b), "module pathalias\n") {
		return false
	}
	fi, err := os.Stat(filepath.Join(d, "cmd", "routed"))
	return err == nil && fi.IsDir()
}

// buildBinaries compiles the programs under test from the checkout.
func buildBinaries(root, bin string) error {
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/routed", "./cmd/pathalias")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building routed and pathalias: %w", err)
	}
	return nil
}

// printRecord prints the run's environment: what produced the numbers.
func printRecord(w io.Writer, root string, seed int64, seconds, trace int) {
	commit := "unknown (not a git checkout)"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	fmt.Fprintf(w, "record: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s tree=%s seed=%d seconds=%d trace=%d\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, treeDigest(root), seed, seconds, trace)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeDigest fingerprints the sources under test (every file except
// build output and version-control metadata), so a run from a checkout
// that is not a git repository still names exactly what it measured.
func treeDigest(root string) string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || p == filepath.Join(root, buildDir)) {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// live tracks every started process so a failing or timed-out run can
// still stop and wait for each one.
var live struct {
	sync.Mutex
	procs map[*proc]bool
}

func track(p *proc) {
	live.Lock()
	defer live.Unlock()
	if live.procs == nil {
		live.procs = make(map[*proc]bool)
	}
	live.procs[p] = true
}

func untrack(p *proc) {
	live.Lock()
	defer live.Unlock()
	delete(live.procs, p)
}

// stopAll kills and waits for every process still running.
func stopAll() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.kill()
	}
}
