package resolver

import (
	"errors"
	"fmt"
	"testing"
)

var appendTestEntries = []Entry{
	{Host: "duke", Route: "duke!%s", Cost: 500},
	{Host: "research", Route: "duke!research!%s", Cost: 700},
	{Host: ".edu", Route: "seismo!%s", Cost: 10},
	{Host: ".rutgers.edu", Route: "seismo!rutgers!%s", Cost: 20},
	{Host: "nomarker", Route: "fixed!path", Cost: 1},
	{Host: "Mixed.Case", Route: "mixed!%s", Cost: 5},
}

var appendTestQueries = []struct{ dest, user string }{
	{"duke", "honey"},
	{"duke", "%s"},
	{"duke.", "honey"},               // trailing dot normalization
	{"caip.rutgers.edu", "pleasant"}, // deep suffix
	{"x.edu", "u"},                   // shallow suffix
	{"sub.dom.rutgers.edu", "u"},     // deeper than any entry
	{".rutgers.edu", "u"},            // exact leading-dot entry
	{".sub.rutgers.edu", "u"},        // leading-dot suffix walk
	{"nomarker", "u"},                // route with no %s marker
	{"nowhere", "u"},                 // miss
	{"a", "u"},                       // single label, no suffix possible
	{"", "u"},                        // empty destination
	{".", "u"},                       // bare dot
	{"a..edu", "u"},                  // empty middle label
	{"Mixed.Case", "u"},
	{"MIXED.CASE", "u"},
	{"müller.edu", "u"}, // non-ASCII: fold fallback path
}

// TestAppendResolveMatchesResolve byte-compares the append path against
// the string path for every query shape, with and without case folding.
func TestAppendResolveMatchesResolve(t *testing.T) {
	for _, fold := range []bool{false, true} {
		t.Run(fmt.Sprintf("fold=%v", fold), func(t *testing.T) {
			r := New(appendTestEntries, Options{FoldCase: fold})
			var s Scratch
			for _, q := range appendTestQueries {
				res, err := r.Resolve(q.dest, q.user)
				out, ok := r.AppendResolve(nil, []byte(q.dest), []byte(q.user), &s)
				if ok != (err == nil) {
					t.Errorf("AppendResolve(%q, %q) ok=%v, Resolve err=%v", q.dest, q.user, ok, err)
					continue
				}
				if !ok {
					if len(out) != 0 {
						t.Errorf("AppendResolve(%q, %q) miss appended %q", q.dest, q.user, out)
					}
					if want := fmt.Sprintf("routedb: no route to %q", q.dest); !errors.Is(err, ErrNoRoute) || err.Error() != want {
						t.Errorf("Resolve(%q) miss: %v, want %q wrapping ErrNoRoute", q.dest, err, want)
					}
					continue
				}
				if got, want := string(out), res.Address(); got != want {
					t.Errorf("AppendResolve(%q, %q) = %q, want %q", q.dest, q.user, got, want)
				}
			}
		})
	}
}

// TestAppendResolveAppends verifies dst contents are appended to, not
// replaced, and a miss leaves dst untouched.
func TestAppendResolveAppends(t *testing.T) {
	r := New(appendTestEntries, Options{})
	var s Scratch
	dst := []byte("ok ")
	dst, ok := r.AppendResolve(dst, []byte("duke"), []byte("honey"), &s)
	if !ok || string(dst) != "ok duke!honey" {
		t.Fatalf("append onto prefix = %q, %v", dst, ok)
	}
	dst, ok = r.AppendResolve(dst, []byte("nowhere"), []byte("u"), &s)
	if ok || string(dst) != "ok duke!honey" {
		t.Fatalf("miss modified dst: %q, %v", dst, ok)
	}
}

// TestAppendResolveCounters: the append path bumps the same counters as
// the string path.
func TestAppendResolveCounters(t *testing.T) {
	r := New(appendTestEntries, Options{})
	var s Scratch
	r.AppendResolve(nil, []byte("duke"), []byte("u"), &s)          // hit
	r.AppendResolve(nil, []byte("x.edu"), []byte("u"), &s)         // suffix
	r.AppendResolve(nil, []byte("nowhere.nodom"), []byte("u"), &s) // miss
	st := r.Stats()
	if st.Hits != 1 || st.SuffixHits != 1 || st.Misses != 1 || st.Resolves != 3 {
		t.Errorf("stats after append path = %+v", st)
	}
}

// TestAppendResolveNoAllocs locks down the point of the API: steady-
// state hits (exact and suffix) and misses allocate nothing.
func TestAppendResolveNoAllocs(t *testing.T) {
	r := New(appendTestEntries, Options{FoldCase: true})
	s := &Scratch{}
	dst := make([]byte, 0, 256)
	dests := [][]byte{
		[]byte("duke"),
		[]byte("CAIP.Rutgers.EDU"),
		[]byte("x.edu"),
		[]byte("nowhere.nodom"),
	}
	user := []byte("honey")
	// Warm up so scratch and dst reach steady-state capacity.
	for _, d := range dests {
		dst, _ = r.AppendResolve(dst[:0], d, user, s)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, d := range dests {
			dst, _ = r.AppendResolve(dst[:0], d, user, s)
		}
	}); n != 0 {
		t.Errorf("AppendResolve allocates %.1f per 4 queries, want 0", n)
	}
}
