package resolver_test

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"testing"

	"pathalias/internal/cost"
	"pathalias/internal/rdb"
	"pathalias/internal/resolver"
)

// decodeEntries turns fuzz input into an entry list that may be
// anything but canonical: unsorted, duplicate hosts with any costs,
// trailing dots, mixed case, arbitrary bytes. The first byte's low bit
// selects FoldCase; the rest is newline-separated records of a cost
// byte, then host, then optionally a tab and a route. Hosts are never
// empty and routes always carry a %s marker, the two things Compile
// rejects.
func decodeEntries(data []byte) ([]resolver.Entry, resolver.Options) {
	var opts resolver.Options
	if len(data) > 0 {
		opts.FoldCase = data[0]&1 != 0
		data = data[1:]
	}
	var es []resolver.Entry
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) < 2 {
			continue
		}
		host, route, _ := strings.Cut(string(line[1:]), "\t")
		if host == "" {
			continue
		}
		if route == "" {
			route = host + "!%s"
		}
		if !strings.Contains(route, "%s") {
			route += "!%s"
		}
		es = append(es, resolver.Entry{Host: host, Route: route, Cost: cost.Cost(int8(line[0]))})
	}
	return es, opts
}

// naiveIndex is the reference index: names normalized as the resolver
// documents (one trailing dot dropped, then case folded under
// FoldCase), the cheapest route per name with ties to the first seen,
// in a sorted slice searched by binary search.
type naiveIndex struct {
	fold bool
	es   []resolver.Entry
}

func (n *naiveIndex) normalize(name string) string {
	if len(name) > 1 && strings.HasSuffix(name, ".") {
		name = name[:len(name)-1]
	}
	if n.fold {
		name = strings.ToLower(name)
	}
	return name
}

func newNaiveIndex(es []resolver.Entry, opts resolver.Options) *naiveIndex {
	n := &naiveIndex{fold: opts.FoldCase}
	best := map[string]int{}
	for _, e := range es {
		e.Host = n.normalize(e.Host)
		if i, ok := best[e.Host]; ok {
			if e.Cost < n.es[i].Cost {
				n.es[i] = e
			}
			continue
		}
		best[e.Host] = len(n.es)
		n.es = append(n.es, e)
	}
	sort.Slice(n.es, func(i, j int) bool { return n.es[i].Host < n.es[j].Host })
	return n
}

func (n *naiveIndex) lookup(key string) (resolver.Entry, bool) {
	i := sort.Search(len(n.es), func(i int) bool { return n.es[i].Host >= key })
	if i < len(n.es) && n.es[i].Host == key {
		return n.es[i], true
	}
	return resolver.Entry{}, false
}

// resolve is the exact match, then a linear walk over the proper domain
// suffixes of the destination, longest first.
func (n *naiveIndex) resolve(dest, user string) (resolver.Resolution, bool) {
	key := n.normalize(dest)
	if e, ok := n.lookup(key); ok {
		return resolver.Resolution{Entry: e, Matched: key, Argument: user}, true
	}
	labels := strings.Split(strings.TrimPrefix(key, "."), ".")
	for d := len(labels) - 1; d >= 1; d-- {
		suffix := "." + strings.Join(labels[len(labels)-d:], ".")
		if e, ok := n.lookup(suffix); ok {
			return resolver.Resolution{Entry: e, Matched: suffix, Argument: key + "!" + user, ViaSuffix: true}, true
		}
	}
	return resolver.Resolution{}, false
}

// queries derives destinations from the entries: every host as given,
// with a trailing dot, in upper case, and under an extra label (a
// suffix hit for domain entries), plus a few fixed misses.
func queries(es []resolver.Entry) []string {
	qs := []string{"", ".", "..", "nowhere", "a.b.c", ".edu", "x.edu"}
	for _, e := range es {
		qs = append(qs, e.Host, e.Host+".", strings.ToUpper(e.Host), "sub."+strings.TrimPrefix(e.Host, "."))
	}
	return qs
}

// checkAgainst compares every query's answers from r — Lookup, Resolve
// and AppendResolve — with the reference.
func checkAgainst(t *testing.T, what string, r *resolver.Resolver, ref *naiveIndex, qs []string) {
	t.Helper()
	var s resolver.Scratch
	for _, q := range qs {
		we, wok := ref.lookup(ref.normalize(q))
		if ge, gok := r.Lookup(q); gok != wok || ge != we {
			t.Fatalf("%s: Lookup(%q) = %+v,%v want %+v,%v", what, q, ge, gok, we, wok)
		}
		want, wok := ref.resolve(q, "user")
		got, err := r.Resolve(q, "user")
		if (err == nil) != wok || got != want {
			t.Fatalf("%s: Resolve(%q) = %+v,%v want %+v,%v", what, q, got, err, want, wok)
		}
		out, ok := r.AppendResolve(nil, []byte(q), []byte("user"), &s)
		if ok != wok || (ok && string(out) != want.Address()) {
			t.Fatalf("%s: AppendResolve(%q) = %q,%v want %q,%v", what, q, out, ok, want.Address(), wok)
		}
	}
}

// FuzzIndexBuild checks index construction on arbitrary, possibly
// non-canonical entry lists. The in-memory index (New, whose already
// canonical fast path and sort-and-dedupe path must agree) and the
// compiled image of the same entries must both answer every query —
// Lookup, Resolve, AppendResolve — exactly as a naive sorted slice
// with a linear suffix walk does; the image must pass the deep
// reachability audit; and compiling the built index must give the
// same bytes as compiling the raw entries. Neither New nor Compile may
// write the entries they are given (the seeds hold unsorted, duplicate,
// trailing-dot and, under FoldCase, upper-case names), and New indexes
// canonical entries in place. With over a built index or an image
// answers and compiles like New, and shares the index's slot table
// exactly when the names and options match.
func FuzzIndexBuild(f *testing.F) {
	for _, seed := range []string{
		"\x00",
		"\x00\x05unc\n\x10duke\tduke!%s\n\x20.edu\tseismo!%s\n\x20.rutgers.edu\tseismo!ru!%s",
		"\x00\x20.edu\tseismo!%s\n\x20.rutgers.edu\tseismo!ru!%s\n\x10duke\tduke!%s\n\x05unc",
		"\x00\x01zeta\n\x02alpha\n\x03Alpha\n\x04beta.\n\x01beta\n\x05.EDU\n\x05.edu.\n",
		"\x01\x01Gamma\tfirst!%s\n\x01gamma\tsecond!%s\n\xffMid\n\x00mid.\n\x02.A..B\n\x02x..b\n",
		"\x00\x01.\n\x01..\n\x01...\n\x01a.\n\x01a\n",
		"\x01\x01\xc3\x89cole\n\x01\xc3\xa9cole\n\x01\xffbad\xfe\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		es, opts := decodeEntries(data)
		ref := newNaiveIndex(es, opts)
		qs := queries(es)

		orig := slices.Clone(es)
		r := resolver.New(es, opts)
		if !slices.Equal(es, orig) {
			t.Fatalf("New wrote its input: %+v, was %+v", es, orig)
		}
		if got := r.Entries(); len(got) != len(ref.es) || (len(got) > 0 && !equalEntries(got, ref.es)) {
			t.Fatalf("New entries %+v, want %+v", got, ref.es)
		} else if len(es) > 0 && slices.Equal(es, ref.es) && &got[0] != &es[0] {
			t.Fatal("New copied canonical entries instead of indexing them in place")
		}
		checkAgainst(t, "memory", r, ref, qs)

		img, err := rdb.Compile(es, opts)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		if !slices.Equal(es, orig) {
			t.Fatalf("Compile wrote its input: %+v, was %+v", es, orig)
		}
		if fromIndex, err := rdb.CompileResolver(r); err != nil || !bytes.Equal(fromIndex, img) {
			t.Fatalf("CompileResolver differs from Compile (err %v)", err)
		}
		rd, err := rdb.OpenBytes(img)
		if err != nil {
			t.Fatalf("OpenBytes(Compile(...)): %v", err)
		}
		if err := rd.VerifyReachable(); err != nil {
			t.Fatalf("VerifyReachable: %v", err)
		}
		mapped := resolver.NewBacked(rd, rd.Options())
		checkAgainst(t, "image", mapped, ref, qs)
		if again, err := rdb.CompileResolver(mapped); err != nil || !bytes.Equal(again, img) {
			t.Fatalf("recompiling the image's index differs (err %v)", err)
		}

		// With over the built index and over the image: entries that
		// keep the names of an index over canonical input (new routes
		// and costs) share its slot table under the same options; other
		// names or options, an index New had to canonicalize, and the
		// image build afresh. Every result answers, and compiles, as New
		// over the same entries.
		prev := r.Entries()
		inPlace := len(es) > 0 && &prev[0] == &es[0]
		other := opts
		other.FoldCase = !other.FoldCase
		for _, v := range []struct {
			what string
			base *resolver.Resolver
			es   []resolver.Entry
			opts resolver.Options
		}{
			{"same names", r, rerouted(prev), opts},
			{"same names, other options", r, rerouted(prev), other},
			{"raw entries", r, es, opts},
			{"one name fewer", r, rerouted(prev[min(1, len(prev)):]), opts},
			{"image", mapped, rerouted(prev), opts},
		} {
			orig := slices.Clone(v.es)
			w := v.base.With(v.es, v.opts)
			if !slices.Equal(v.es, orig) {
				t.Fatalf("With (%s) wrote its input", v.what)
			}
			checkAgainst(t, "With ("+v.what+")", w, newNaiveIndex(v.es, v.opts), queries(v.es))
			want, err := rdb.CompileResolver(resolver.New(v.es, v.opts))
			if err != nil {
				t.Fatal(err)
			}
			if got, err := rdb.CompileResolver(w); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("With (%s) compiles unlike New (err %v)", v.what, err)
			}
			_, ws := w.Index()
			_, rs := r.Index()
			shared := len(ws) > 0 && len(rs) > 0 && &ws[0] == &rs[0]
			wantShared := inPlace && v.base == r && v.opts == opts && sameHosts(v.es, prev)
			if shared != wantShared {
				t.Fatalf("With (%s) shares the slot table: %v, want %v", v.what, shared, wantShared)
			}
		}
	})
}

// rerouted returns es with every route and cost changed and the names
// kept.
func rerouted(es []resolver.Entry) []resolver.Entry {
	out := slices.Clone(es)
	for i := range out {
		out[i].Route = "via!" + out[i].Route
		out[i].Cost++
	}
	return out
}

func sameHosts(a, b []resolver.Entry) bool {
	return slices.EqualFunc(a, b, func(x, y resolver.Entry) bool { return x.Host == y.Host })
}

func equalEntries(a, b []resolver.Entry) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
