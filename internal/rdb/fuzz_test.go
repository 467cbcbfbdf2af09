package rdb

import (
	"strings"
	"testing"

	"pathalias/internal/resolver"
)

// FuzzReader hands the reader arbitrary bytes. The contract under test:
// OpenBytes either fails with an error or returns a Reader whose every
// operation is safe — no panics, no reads outside the image (Go bounds
// checks turn an over-read into a panic, which the fuzzer catches).
// When open succeeds, the whole surface is exercised: every entry is
// materialized, every host looked up, and resolution (exact and
// suffix) is run through a real resolver on top of the backing — by
// both Resolve and the daemon's AppendResolve, whose answers must be
// byte-identical.
func FuzzReader(f *testing.F) {
	// Seeds: valid images of increasing shape coverage, so mutations
	// start near the interesting boundaries rather than in magic-check
	// rejection territory.
	seedSets := [][]resolver.Entry{
		nil,
		{{Host: "a", Route: "a!%s", Cost: 1}},
		testEntries(),
		{
			{Host: ".a.b.c.d.e", Route: "deep!%s", Cost: 9},
			{Host: ".e", Route: "e!%s", Cost: 1},
			{Host: "x.y", Route: "xy!%s", Cost: 2},
		},
	}
	for _, es := range seedSets {
		img, err := Compile(es, resolver.Options{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		if len(img) > footerSize {
			f.Add(img[:len(img)-footerSize]) // truncated
		}
		flipped := append([]byte(nil), img...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add(magic[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenBytes(data)
		if err != nil {
			return
		}
		// Validation accepted the image: every operation must be safe,
		// and — when the deep reachability proof also passes — every
		// entry must be findable by its own name.
		reachable := r.VerifyReachable() == nil
		res := resolver.NewBacked(r, r.Options())
		var s resolver.Scratch
		// sameAnswer checks AppendResolve against Resolve for one query,
		// appending onto a non-empty dst.
		sameAnswer := func(q, user string) error {
			want, err := res.Resolve(q, user)
			out, ok := res.AppendResolve([]byte("> "), []byte(q), []byte(user), &s)
			switch {
			case ok != (err == nil):
				t.Fatalf("AppendResolve(%q) ok=%v, Resolve err=%v", q, ok, err)
			case !ok && string(out) != "> ":
				t.Fatalf("AppendResolve(%q) miss changed dst to %q", q, out)
			case ok && string(out) != "> "+want.Address():
				t.Fatalf("AppendResolve(%q) = %q, want %q", q, out, "> "+want.Address())
			}
			return err
		}
		for i := 0; i < r.Len(); i++ {
			e := r.EntryAt(i)
			if e.Host == "" {
				t.Fatalf("accepted image yielded empty host at entry %d", i)
			}
			j, ok := r.LookupExact([]byte(e.Host))
			if ok && j != i {
				t.Fatalf("lookup of %q found entry %d, not %d", e.Host, j, i)
			}
			if reachable && !ok {
				t.Fatalf("entry %d (%q) not found despite VerifyReachable", i, e.Host)
			}
			if err := sameAnswer(e.Host, "user"); reachable && err != nil && !strings.HasPrefix(e.Host, ".") {
				t.Fatalf("Resolve(%q): %v", e.Host, err)
			}
		}
		// Queries that exercise the suffix trie and misses.
		for _, q := range []string{"", ".", "a", "q.e", "x.a.b.c.d.e", "caip.rutgers.edu", "no.such.domain"} {
			sameAnswer(q, "u")
			res.Lookup(q)
		}
	})
}
