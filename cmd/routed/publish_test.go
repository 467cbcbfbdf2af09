package main

// Tests for the continuous-publish pipeline (-map -o-db): every re-map
// that changes the routes republishes the compiled image atomically;
// no-op re-maps publish nothing; a restart warm-starts from the image
// and the background audit demotes a corrupt one.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pathalias"
	"pathalias/internal/core"
	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
	"pathalias/internal/rdb"
	"pathalias/internal/resolver"
	"pathalias/internal/routedb"
)

// batchImage compiles mapText through the public batch API — the same
// pipeline `pathalias -o-db` and `mkdb -binary` use — giving an
// independently produced reference image for bit-identity checks.
func batchImage(t *testing.T, mapText string) []byte {
	t.Helper()
	res, err := pathalias.RunString(pathalias.Options{LocalHost: "unc"}, mapText)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteDB(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMapPublishesImage: the initial map publishes an image
// bit-identical to the batch compiler's output on the same sources, a
// re-map that cannot change routes republishes nothing, and a
// route-changing re-map publishes exactly one new image.
func TestMapPublishesImage(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	odb := filepath.Join(dir, "routes.rdb")
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newMapDaemon(routedb.Options{}, io.Discard)
	w, err := newMapWatcher(d, "unc", 8, []string{mapPath}, odb, false)
	if err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(odb)
	if err != nil {
		t.Fatalf("initial map published no image: %v", err)
	}
	if want := batchImage(t, testMapSrc); !bytes.Equal(got, want) {
		t.Fatalf("published image differs from the batch compiler's (%d vs %d bytes)", len(got), len(want))
	}
	stat1, err := os.Stat(odb)
	if err != nil {
		t.Fatal(err)
	}

	// A comment-only edit re-maps but cannot change routes: no new
	// image (atomic publish = rename = new inode, so SameFile proves
	// no republish happened).
	if err := os.WriteFile(mapPath, []byte("# tweak\n"+testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.remap(); err != nil {
		t.Fatal(err)
	}
	stat2, err := os.Stat(odb)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(stat1, stat2) {
		t.Error("no-op re-map republished the image")
	}

	// A route-changing edit publishes exactly one new, valid image.
	edited := strings.Replace(testMapSrc, "unc\tduke(HOURLY)", "unc\tduke(WEEKLY*10)", 1)
	if err := os.WriteFile(mapPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.remap(); err != nil {
		t.Fatal(err)
	}
	stat3, err := os.Stat(odb)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(stat2, stat3) {
		t.Fatal("route-changing re-map did not publish a new image")
	}
	if want := batchImage(t, edited); true {
		got, err := os.ReadFile(odb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("republished image differs from the batch compiler's (%d vs %d bytes)", len(got), len(want))
		}
	}
	db, err := routedb.OpenBinary(odb)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if e, ok := db.Lookup("duke"); !ok || e.Route != "phs!duke!%s" {
		t.Errorf("published image serves duke = %+v, %v", e, ok)
	}
}

// TestHeldPublishBlocksNoLookup: while a re-map's image publish is held
// (blocked here in its test hook), the default vantage, a resident
// from= vantage and a from= vantage that spins up lazily all answer,
// as a daemon started over the edited map does. Once released, the
// edit lands as one new image, byte-identical to rdb.Compile of the
// final routes.
func TestHeldPublishBlocksNoLookup(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	odb := filepath.Join(dir, "routes.rdb")
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	logs := &logCounter{prefix: "published "}
	d := newMapDaemon(routedb.Options{}, logs)
	w, err := newMapWatcher(d, "unc", 8, []string{mapPath}, odb, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.storeFor("duke"); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(odb)
	if err != nil {
		t.Fatal(err)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	w.pubHook = func() {
		close(entered)
		<-release
	}
	edited := strings.Replace(testMapSrc, "unc\tduke(HOURLY)", "unc\tduke(WEEKLY*10)", 1)
	if err := os.WriteFile(mapPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.remap() }()
	select {
	case <-entered:
	case err := <-done:
		t.Fatalf("the re-map ended (%v) without publishing", err)
	}
	queries := []string{"duke honey", "from=duke ucbvax honey", "from=research unc honey"}
	answered := make(chan []string, 1)
	go func() {
		var during []string
		for _, q := range queries {
			reply, _ := askLine(d, q)
			during = append(during, reply)
		}
		answered <- during
	}()
	select {
	case during := <-answered:
		fresh := newMapDaemon(routedb.Options{}, io.Discard)
		if _, err := newMapWatcher(fresh, "unc", 8, []string{mapPath}, "", false); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if want, _ := askLine(fresh, q); during[i] != want || !strings.HasPrefix(want, "ok ") {
				t.Errorf("%q = %q while the publish is held, want %q", q, during[i], want)
			}
		}
	case <-time.After(5 * time.Second):
		t.Error("lookups waited on the held publish")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	after, err := os.Stat(odb)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) || logs.n.Load() != 2 {
		t.Fatalf("%d images published (new inode: %v), want the initial one and one for the edit",
			logs.n.Load(), !os.SameFile(before, after))
	}
	ins, err := core.ReadInputs([]string{mapPath})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Run(core.Config{Inputs: ins, LocalHost: "unc"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rdb.Compile(rep.Entries, resolver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(odb); err != nil || !bytes.Equal(got, want) {
		t.Errorf("published image (%d bytes, %v) differs from rdb.Compile of the final routes (%d bytes)", len(got), err, len(want))
	}
}

// TestMapRouteNeutralEditKeepsStores: an effective edit that moves none
// of the resident vantages' routes rebuilds no store and rewrites no
// image, although every warm re-map sweeps and re-invents the invented
// back links the map's passive hosts need.
func TestMapRouteNeutralEditKeepsStores(t *testing.T) {
	dir := t.TempDir()
	pins, local := mapgen.Generate(mapgen.Small())
	const from = "host7"
	var paths []string
	for _, in := range pins {
		p := filepath.Join(dir, in.Name)
		if err := os.WriteFile(p, []byte(in.Src), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	file, edited := routeNeutralEdit(t, pins, []string{local, from})

	odb := filepath.Join(dir, "routes.rdb")
	d := newMapDaemon(routedb.Options{}, io.Discard)
	w, err := newMapWatcher(d, local, 8, paths, odb, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := w.storeFor(from)
	if err != nil {
		t.Fatal(err)
	}
	defDB, fromDB := d.store.DB(), st.DB()
	before, err := os.Stat(odb)
	if err != nil {
		t.Fatal(err)
	}
	gen := d.traces.Last().Gen

	if err := os.WriteFile(paths[file], []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.remap(); err != nil {
		t.Fatal(err)
	}
	if tr := d.traces.Last(); tr.Gen == gen || tr.Warm != 2 || tr.Full != 0 {
		t.Fatalf("edit left trace gen %d (was %d), %d warm/%d full re-maps; want a new generation, 2 warm",
			tr.Gen, gen, tr.Warm, tr.Full)
	}
	if d.store.DB() != defDB || st.DB() != fromDB {
		t.Error("a store was rebuilt although its vantage's routes did not move")
	}
	after, err := os.Stat(odb)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
		t.Error("the image was rewritten although the default vantage's routes did not move")
	}

	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/lastmap")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr struct {
		Published       bool `json:"published"`
		StoresUnchanged int  `json:"stores_unchanged"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Published || tr.StoresUnchanged != 2 {
		t.Errorf("/lastmap published=%v stores_unchanged=%d; want false, 2", tr.Published, tr.StoresUnchanged)
	}
}

// routeNeutralEdit finds one link cost to raise (HOURLY to WEEKLY) so
// that batch runs from every vantage print byte-identical routes before
// and after, and returns the edited file's index and new text. The map
// must need back links from each vantage, or the edit would not
// exercise their sweep.
func routeNeutralEdit(t *testing.T, pins []parser.Input, vantages []string) (int, string) {
	t.Helper()
	i, src, ok := mapgen.RouteNeutralEdit(pins, func(in []parser.Input) string {
		var sb strings.Builder
		for _, h := range vantages {
			rep, err := core.Run(core.Config{Inputs: in, LocalHost: h})
			if err != nil {
				t.Fatalf("batch run from %s: %v", h, err)
			}
			if rep.MapResult.BackLinked == 0 {
				t.Fatalf("batch run from %s reaches no host through a back link", h)
			}
			for _, e := range rep.Entries {
				fmt.Fprintf(&sb, "%d\t%s\t%s\n", int64(e.Cost), e.Host, e.Route)
			}
		}
		return sb.String()
	})
	if !ok {
		t.Fatal("no route-neutral cost edit found")
	}
	return i, src
}

// TestMapWarmStart: with a published image on disk, a restarting daemon
// serves it before the engine's first computation lands; engine-backed
// query forms are refused with a clear error until then; once ready,
// every answer is byte-identical to a cold-started daemon's, and the
// unchanged image is not republished.
func TestMapWarmStart(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	odb := filepath.Join(dir, "routes.rdb")
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(odb, batchImage(t, testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	// The warm-start sequence main.go runs before the watcher exists.
	var log strings.Builder
	d := newMapDaemon(routedb.Options{}, &log)
	t.Cleanup(d.audits.Wait)
	db, err := routedb.OpenBinary(odb)
	if err != nil {
		t.Fatal(err)
	}
	d.store.Swap(db)
	d.swaps.Add(1)
	d.auditImage(db, nil, odb)
	if got, _ := askLine(d, "ucbvax honey"); got != "ok duke!research!ucbvax!honey" {
		t.Fatalf("image-served answer = %q", got)
	}
	stat1, err := os.Stat(odb)
	if err != nil {
		t.Fatal(err)
	}

	w, err := newMapWatcher(d, "unc", 8, []string{mapPath}, odb, true)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the not-ready state (the background computation may land any
	// moment) to check the gating deterministically.
	ready := d.mapReady
	d.mapReady = func() bool { return false }
	for _, line := range []string{"from=duke ucbvax honey", "explain ucbvax", "overlay=dead,duke,phs ucbvax"} {
		if got, _ := askLine(d, line); !strings.Contains(got, "warming up") {
			t.Errorf("not-ready %q = %q, want a warming-up error", line, got)
		}
	}
	d.mapReady = ready
	<-w.ready
	d.audits.Wait()

	// The live engine's answers must be byte-identical to a cold start's.
	cold := newMapDaemon(routedb.Options{}, io.Discard)
	if _, err := newMapWatcher(cold, "unc", 8, []string{mapPath}, "", false); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"ucbvax honey", "duke honey", "phs u", "research", "nowhere u",
		"from=duke ucbvax honey", "explain ucbvax",
	} {
		warmReply, _ := askLine(d, line)
		coldReply, _ := askLine(cold, line)
		if warmReply != coldReply {
			t.Errorf("%q: warm %q != cold %q", line, warmReply, coldReply)
		}
	}

	// The routes did not change, so the warm restart must not have
	// republished (the byte-compare adoption path).
	stat2, err := os.Stat(odb)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(stat1, stat2) {
		t.Error("warm restart republished an identical image")
	}
	if strings.Contains(log.String(), "failed deep verification") {
		t.Errorf("audit faulted a good image: %s", log.String())
	}
}

// corruptHiddenEntry returns a copy of img altered so that it still
// passes the open-time (shallow) validation but hides one entry from
// its own probe sequence — the corruption class open-time checks
// deliberately defer to the audit. It moves one occupied hash slot's
// value to an empty slot and reseals the hash-section and footer
// checksums, brute-forcing (from, to) pairs until the image opens
// clean but fails DeepVerify.
func corruptHiddenEntry(t *testing.T, img []byte) []byte {
	t.Helper()
	le := binary.LittleEndian
	tab := crc32.MakeTable(crc32.Castagnoli)
	// Header layout (internal/rdb): slots u64 at 24, hash section
	// offset/length u64 at 64/72, per-section CRCs 4×u32 at 104 (hash
	// is section 2), footer CRC u32 at len-16.
	slots := le.Uint64(img[24:])
	hashOff := le.Uint64(img[64:])
	reseal := func(m []byte) {
		le.PutUint32(m[104+4*2:], crc32.Checksum(m[hashOff:hashOff+slots*4], tab))
		le.PutUint32(m[len(m)-16:], crc32.Checksum(m[:len(m)-16], tab))
	}
	for from := uint64(0); from < slots; from++ {
		if le.Uint32(img[hashOff+from*4:]) == 0 {
			continue
		}
		for to := uint64(0); to < slots; to++ {
			if le.Uint32(img[hashOff+to*4:]) != 0 {
				continue
			}
			m := bytes.Clone(img)
			le.PutUint32(m[hashOff+to*4:], le.Uint32(m[hashOff+from*4:]))
			le.PutUint32(m[hashOff+from*4:], 0)
			reseal(m)
			db, err := routedb.OpenBinaryBytes(m)
			if err != nil {
				continue // shallow validation caught it; try another pair
			}
			deepErr := db.DeepVerify()
			db.Close()
			if deepErr != nil {
				return m
			}
		}
	}
	t.Fatal("no slot move produced a shallow-valid, deep-invalid image")
	return nil
}

// TestMapAuditDemotesCorruptImage: a warm start from an image whose
// corruption only the deferred audit can see begins serving it, then
// the background audit demotes the store with a logged error — here to
// the empty no-predecessor store, which misses rather than answering
// from a faulty table.
func TestMapAuditDemotesCorruptImage(t *testing.T) {
	dir := t.TempDir()
	odb := filepath.Join(dir, "routes.rdb")
	bad := corruptHiddenEntry(t, batchImage(t, testMapSrc))
	if err := os.WriteFile(odb, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	var log strings.Builder
	d := newMapDaemon(routedb.Options{}, &log)
	t.Cleanup(d.audits.Wait)
	db, err := routedb.OpenBinary(odb)
	if err != nil {
		t.Fatalf("shallow open of the crafted image must succeed: %v", err)
	}
	d.store.Swap(db)
	d.swaps.Add(1)
	d.auditImage(db, nil, odb)
	d.audits.Wait()
	if !strings.Contains(log.String(), "failed deep verification") {
		t.Errorf("audit logged nothing: %q", log.String())
	}
	if n := d.store.Len(); n != 0 {
		t.Errorf("store not demoted: still serving %d routes", n)
	}
}

// TestRunMapModeWarmSmoke drives the full run() wiring: -o-db with an
// existing image logs a warm start and answers queries correctly.
func TestRunMapModeWarmSmoke(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "test.map")
	odb := filepath.Join(dir, "routes.rdb")
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(odb, batchImage(t, testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader("ucbvax honey\nquit\n")
	var out, errw strings.Builder
	if code := run([]string{"-map", "-l", "unc", "-o-db", odb, "-stdin", "-watch", "0", mapPath}, in, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 2 || lines[0] != "ok duke!research!ucbvax!honey" || lines[1] != "ok bye" {
		t.Fatalf("replies = %q", lines)
	}
	if !strings.Contains(errw.String(), "warm start") {
		t.Errorf("no warm-start log: %q", errw.String())
	}

	// -o-db outside -map mode is a usage error.
	if code := run([]string{"-db", odb, "-o-db", odb, "-stdin"}, strings.NewReader(""), &out, &errw); code != 2 {
		t.Errorf("-o-db without -map: run = %d", code)
	}
}

// warmStart is the shared many-host fixture for the speedup bar:
// linear text routes, the same database compiled to the rdb image, and
// a probe host — built once per test binary (the map computation at
// this scale costs a second or two).
var warmStart struct {
	once  sync.Once
	err   error
	text  []byte
	img   []byte
	probe string
}

func warmStartFixture(tb testing.TB) (text, img []byte, probe string) {
	tb.Helper()
	warmStart.once.Do(func() {
		inputs, local := mapgen.Generate(mapgen.Scaled(60000, 18))
		res, err := parser.Parse(inputs...)
		if err != nil {
			warmStart.err = err
			return
		}
		src, _ := res.Graph.Lookup(local)
		mres, err := mapper.Run(res.Graph, src, mapper.DefaultOptions())
		if err != nil {
			warmStart.err = err
			return
		}
		entries := printer.Routes(mres, printer.Options{})
		var buf bytes.Buffer
		for _, e := range entries {
			fmt.Fprintf(&buf, "%d\t%s\t%s\n", int64(e.Cost), e.Host, e.Route)
		}
		warmStart.text = buf.Bytes()
		db, err := routedb.Load(bytes.NewReader(warmStart.text))
		if err != nil {
			warmStart.err = err
			return
		}
		var img bytes.Buffer
		if _, err := db.WriteBinary(&img); err != nil {
			warmStart.err = err
			return
		}
		warmStart.img = img.Bytes()
		warmStart.probe = entries[len(entries)/2].Host
	})
	if warmStart.err != nil {
		tb.Fatal(warmStart.err)
	}
	return warmStart.text, warmStart.img, warmStart.probe
}

// TestWarmStartSpeedup enforces the warm-start acceptance bar at the
// daemon layer: restart-to-first-answer from the published image must
// beat the text route file's parse-and-index path by >= 10x — the same
// bar TestColdStartSpeedup pins for the raw open in the root package,
// here measured through the exact sequence routed -map -o-db runs on
// boot (open, swap, first lookup) on a generated many-host map.
func TestWarmStartSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock assertion")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing ratio")
	}
	text, img, probe := warmStartFixture(t)
	dir := t.TempDir()
	textPath := filepath.Join(dir, "routes.db")
	odb := filepath.Join(dir, "routes.rdb")
	if err := os.WriteFile(textPath, text, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(odb, img, 0o644); err != nil {
		t.Fatal(err)
	}

	query := probe + " user"
	textBoot := func() {
		d, err := newDaemon(textPath, false, routedb.Options{}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := askLine(d, query); !strings.HasPrefix(got, "ok ") {
			t.Fatalf("text answer = %q", got)
		}
	}
	warmBoot := func() {
		// The warm-start boot sequence; the deferred audit runs in the
		// background after serving starts and is deliberately outside
		// the restart-to-first-answer window.
		d := newMapDaemon(routedb.Options{}, io.Discard)
		db, err := routedb.OpenBinary(odb)
		if err != nil {
			t.Fatal(err)
		}
		d.store.Swap(db)
		d.swaps.Add(1)
		if got, _ := askLine(d, query); !strings.HasPrefix(got, "ok ") {
			t.Fatalf("warm answer = %q", got)
		}
	}
	// Interleaved rounds, so a burst of machine noise lands on both
	// sides; each side's minimum is its least-disturbed run. Every boot
	// starts from a collected heap, so neither pays for the garbage the
	// other left behind, and both run on one P: otherwise the text
	// side's concurrent GC is free or not depending on whether another
	// core happens to be idle, and the ratio swings with the machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 9
	timeIt := func(boot func()) time.Duration {
		runtime.GC()
		start := time.Now()
		boot()
		return time.Since(start)
	}
	textTime, warmTime := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		textTime = min(textTime, timeIt(textBoot))
		warmTime = min(warmTime, timeIt(warmBoot))
	}

	ratio := float64(textTime) / float64(warmTime)
	t.Logf("restart to first answer: text %v, warm %v (%.1fx)", textTime, warmTime, ratio)
	if ratio < 10 {
		t.Errorf("warm start only %.1fx faster than the text path (want >= 10x): text %v, warm %v",
			ratio, textTime, warmTime)
	}
}
