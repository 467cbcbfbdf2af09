package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"pathalias/internal/mapgen"
	"pathalias/internal/whatif"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The rule itself: never a p99 below 1000 samples.
	for n := 1; n < 1000; n++ {
		if tailPercentile(n) >= 99 {
			t.Fatalf("p%g reported from %d samples", tailPercentile(n), n)
		}
	}
}

// Throughput is the median of one-second segments' rates: one stalled
// segment and one burst must not move it.
func TestMedianThroughput(t *testing.T) {
	rates := []float64{100, 3, 104, 5000}
	if got := median(rates); got != 102 {
		t.Errorf("median of %v = %g, want 102", rates, got)
	}
	if got := median(append(rates, 101)); got != 101 {
		t.Errorf("median of five rates = %g, want 101", got)
	}
	if rates[1] != 3 {
		t.Error("median reordered its input")
	}
}

// A run's amount of work depends on --seconds alone, never on how fast
// the build under test is.
func TestPerSecond(t *testing.T) {
	for _, c := range []struct {
		seconds int
		rate    float64
		want    int
	}{
		{12, lookupRingsPerSecond, 144}, {12, editsPerSecond, 48}, {12, questionsPerSecond, 1920},
		{12, cyclesPerSecond, 6}, {1, cyclesPerSecond, 1}, {1, 0.1, 1},
	} {
		r := &runner{seconds: time.Duration(c.seconds) * time.Second}
		if got := r.perSecond(c.rate); got != c.want {
			t.Errorf("perSecond(%g) at %ds = %d, want %d", c.rate, c.seconds, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	h := &hist{}
	var xs []float64
	for i := 1; i <= 100000; i++ {
		v := time.Duration(i*i%7919+1) * time.Microsecond
		h.add(v)
		xs = append(xs, float64(v))
	}
	sorted := sortedCopy(xs)
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact := percentile(sorted, p)
		got := float64(h.quantile(p))
		if math.Abs(got-exact)/exact > 1.0/256 {
			t.Errorf("p%g = %v, exact %v", p, time.Duration(got), time.Duration(exact))
		}
	}
}

// The generators must give identical inputs for a seed and different
// inputs for another seed.
func TestGeneratorsAreSeeded(t *testing.T) {
	cfg := mapgen.Small()
	ins, local := mapgen.Generate(cfg)
	var srcs, names []string
	for _, in := range ins {
		names = append(names, filepath.Join("maps", in.Name))
		srcs = append(srcs, in.Src)
	}
	hostsOf := func() []string {
		ed, err := newEditor(nil, newRand(0, "x"), names, srcs, local, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ed.close()
		return hostNames(ed.cur)
	}
	hosts := hostsOf()

	type draw struct {
		queries []query
		specs   []string
		qs      []wquery
		edits   []editStep
	}
	drawAll := func(seed int64) draw {
		var d draw
		d.queries = queryStream(newRand(seed, "lookup"), hosts, 500)
		d.specs = specPool(newRand(seed, "specs"), allLinks(srcs), 64)
		d.qs = whatifStream(newRand(seed, "questions"), len(d.specs), whatif.DefaultMaxCached, hosts, 200)
		ed, err := newEditor(nil, newRand(seed, "edits"), names, srcs, local, []string{"host1", "host2"})
		if err != nil {
			t.Fatal(err)
		}
		defer ed.close()
		ed.bg = d.queries[:20]
		for k := 1; k <= 4; k++ {
			st, err := ed.step(k)
			if err != nil {
				t.Fatal(err)
			}
			d.edits = append(d.edits, *st)
		}
		return d
	}
	a, b, c := drawAll(1), drawAll(1), drawAll(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed drew different inputs")
	}
	if reflect.DeepEqual(a.queries, c.queries) || reflect.DeepEqual(a.specs, c.specs) ||
		reflect.DeepEqual(a.qs, c.qs) || reflect.DeepEqual(a.edits, c.edits) {
		t.Error("different seeds drew an identical input stream")
	}
	var kinds [numKinds]int
	for _, q := range queryStream(newRand(1, "lookup"), hosts, 10000) {
		kinds[q.kind]++
	}
	if kinds[kindExact] < 7700 || kinds[kindSuffix] < 1300 || kinds[kindMiss] < 350 {
		t.Errorf("query mix %v, want about 80/15/5%%", kinds)
	}
	// Every seed asks its cold questions at the same positions, as the
	// daemon's cache sees them.
	for _, d := range []draw{a, c} {
		cold, err := coldQuestions(d.specs, d.qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range cold {
			if got != (i%coldEvery == 0) {
				t.Fatalf("question %d: cold=%v", i, got)
			}
		}
	}
	for _, st := range a.edits {
		if st.oldReply == st.newReply || len(st.answers) != 20 {
			t.Errorf("edit %s: probe %q does not change (%q) or answers missing", st.kind, st.probe.line(), st.newReply)
		}
	}
}

// writeReplace must never disturb the file it replaces: a reader that
// has the old file mapped keeps its bytes, and the path names a new
// inode.
func TestWriteReplaceKeepsOldMapping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "core0.map")
	old := []byte("host0\thost1(DEMAND)\nhost1\thost2(HOURLY)\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mapped, err := syscall.Mmap(int(f.Fd()), 0, len(old), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mapped)
	before := inode(path)

	if err := writeReplace(path, "host0\thost1(WEEKLY)\n"); err != nil {
		t.Fatal(err)
	}
	if after := inode(path); after == before || after == 0 {
		t.Errorf("inode %d → %d: the file was rewritten in place", before, after)
	}
	if string(mapped) != string(old) {
		t.Errorf("the old mapping changed: %q", mapped)
	}
	if b, _ := os.ReadFile(path); string(b) != "host0\thost1(WEEKLY)\n" {
		t.Errorf("new content %q", b)
	}
	if ents, _ := os.ReadDir(filepath.Dir(path)); len(ents) != 1 {
		t.Errorf("temporary files left behind: %d entries", len(ents))
	}
}

// BENCHMARK.json must describe exactly what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, got []string
	for _, w := range workloads {
		names = append(names, w.name+": "+w.why)
	}
	for _, w := range spec.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	if !reflect.DeepEqual(got, names) {
		t.Errorf("BENCHMARK.json workloads %q,\nprogram runs %q", got, names)
	}
	check := func(kind string, file []struct{ Name, Unit string }, prog []metricSpec) {
		var fs, ps []metricSpec
		for _, m := range file {
			fs = append(fs, metricSpec{m.Name, m.Unit})
		}
		ps = append(ps, prog...)
		if !reflect.DeepEqual(fs, ps) {
			t.Errorf("%s metrics in BENCHMARK.json %v, program reports %v", kind, fs, ps)
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayer)
}

// A short traced run of every workload on small maps, against real
// daemons built from this tree.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts daemons")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")
	if err := buildBinaries(root, bin); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		r := &runner{
			bin: bin, seed: 3, trace: true, small: true,
			seconds: time.Second,
			work:    filepath.Join(dir, w.name),
			spans:   filepath.Join(dir, w.name+".spans.json"),
		}
		if code := r.execute(w); code != 0 {
			t.Fatalf("%s: exit code %d", w.name, code)
		}
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, r.failed, r.attempted)
		}
		if _, err := os.Stat(r.spans); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
		for _, m := range endToEnd {
			if _, ok := r.e2e[m.name]; !ok {
				t.Errorf("%s: %s not measured", w.name, m.name)
			}
		}
	}
}
