package main

import (
	"encoding/json"
	"io"
	"maps"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pathalias/internal/routedb"
)

// TestMapFoldCase pins the -map -i case policy end to end: over a map
// that spells duke and research in two cases, every query form answers
// the same under any spelling of its host names, a vantage is resident
// once under its folded name, and a re-spelled overlay is a cache hit.
func TestMapFoldCase(t *testing.T) {
	src, err := os.ReadFile("../../testdata/paper1981.map")
	if err != nil {
		t.Fatal(err)
	}
	mixed := strings.NewReplacer(
		"duke\tunc", "Duke\tunc",
		"research(DAILY/2)", "RESEARCH(DAILY/2)",
		"ucbvax\tresearch", "ucbvax\tRESEARCH",
	).Replace(string(src))
	if mixed == string(src) {
		t.Fatal("mixed-case copy is the original map")
	}
	mapPath := filepath.Join(t.TempDir(), "mixed.map")
	if err := os.WriteFile(mapPath, []byte(mixed), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newMapDaemon(routedb.Options{FoldCase: true}, io.Discard)
	if _, err := newMapWatcher(d, "UNC", 8, []string{mapPath}, ""); err != nil {
		t.Fatal(err)
	}

	pairs := []struct{ upper, lower, want string }{
		{"from=DUKE ucbvax honey", "from=duke ucbvax honey", "ok research!ucbvax!honey"},
		{"overlay=dead,UNC,DUKE research honey", "overlay=dead,unc,duke research honey", "ok phs!duke!research!honey"},
		{"explain from=DUKE ucbvax", "explain from=duke ucbvax", ""},
		{"explain overlay=dead,UNC,DUKE research", "explain overlay=dead,unc,duke research", ""},
		{"impact overlay=dead,UNC,DUKE", "impact overlay=dead,unc,duke", ""},
		{"impact from=DUKE overlay=dead,DUKE,RESEARCH", "impact from=duke overlay=dead,duke,research", ""},
	}
	for _, p := range pairs {
		before := d.mw.whatif.Stats()
		up, _ := askLine(d, p.upper)
		mid := d.mw.whatif.Stats()
		low, _ := askLine(d, p.lower)
		after := d.mw.whatif.Stats()
		if !strings.HasPrefix(up, "ok ") || up != low {
			t.Errorf("%q = %q, %q = %q; want the same ok reply", p.upper, up, p.lower, low)
		}
		if p.want != "" && up != p.want {
			t.Errorf("%q = %q, want %q", p.upper, up, p.want)
		}
		// The second spelling reuses the first one's evaluations.
		if mid.Misses > before.Misses && after.Misses != mid.Misses {
			t.Errorf("%q: %d what-if misses after %q, want none", p.lower, after.Misses-mid.Misses, p.upper)
		}
	}

	// The overlay pair above ran twice; the re-spelled one was a hit.
	if st := d.mw.whatif.Stats(); st.Hits == 0 {
		t.Errorf("what-if stats %+v: no cache hit for a re-spelled overlay", st)
	}

	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s statsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if got := slices.Sorted(maps.Keys(s.Vantages)); !slices.Equal(got, []string{"duke", "unc"}) {
		t.Errorf("/stats vantages = %v, want [duke unc]", got)
	}
}
