package rdb

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pathalias/internal/cost"
	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
	"pathalias/internal/resolver"
)

// goldenRoutes reads one of the repository's golden vantage route files
// ("cost\thost\troute" lines).
func goldenRoutes(t *testing.T, host string) []resolver.Entry {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "paper1981."+host+".routes"))
	if err != nil {
		t.Fatal(err)
	}
	var es []resolver.Entry
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 3 {
			t.Fatalf("golden %s: bad line %q", host, sc.Text())
		}
		c, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, resolver.Entry{Host: f[1], Route: f[2], Cost: cost.Cost(c)})
	}
	return es
}

// smallMapRoutes computes the routes of mapgen.Small() from its
// generated local host.
func smallMapRoutes(t *testing.T) []resolver.Entry {
	t.Helper()
	inputs, local := mapgen.Generate(mapgen.Small())
	res, err := parser.Parse(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := res.Graph.Lookup(local)
	mres, err := mapper.Run(res.Graph, src, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var es []resolver.Entry
	for _, e := range printer.Routes(mres, printer.Options{}) {
		es = append(es, resolver.Entry{Host: e.Host, Route: e.Route, Cost: e.Cost})
	}
	return es
}

// nonCanonicalEntries needs every normalization Compile performs:
// unsorted input, duplicate hosts with different costs (and with equal
// costs, where the first seen wins), trailing dots and upper case.
func nonCanonicalEntries() []resolver.Entry {
	return []resolver.Entry{
		{Host: "zeta", Route: "zeta!%s", Cost: 10},
		{Host: "Alpha", Route: "alpha!%s", Cost: 40},
		{Host: "alpha", Route: "cheap!alpha!%s", Cost: 20},
		{Host: "beta.", Route: "beta!%s", Cost: 30},
		{Host: "beta", Route: "dear!beta!%s", Cost: 90},
		{Host: ".EDU", Route: "seismo!%s", Cost: 900},
		{Host: ".edu.", Route: "other!%s", Cost: 900},
		{Host: ".Rutgers.edu", Route: "seismo!ru!%s", Cost: 950},
		{Host: "Gamma", Route: "first!%s", Cost: 5},
		{Host: "gamma", Route: "second!%s", Cost: 5},
		{Host: "mid", Route: "mid!%s", Cost: 0},
		{Host: "mid", Route: "mid2!%s", Cost: -3},
	}
}

// TestCompileGolden pins Compile's output bytes by SHA-256 for fixed
// inputs, so a change to how images are laid out (or to which index
// they are laid out from) cannot alter a published image unnoticed.
// The digests must never change without a format version bump.
func TestCompileGolden(t *testing.T) {
	unc, duke := goldenRoutes(t, "unc"), goldenRoutes(t, "duke")
	small := smallMapRoutes(t)
	odd := nonCanonicalEntries()
	fold := resolver.Options{FoldCase: true}
	cases := []struct {
		name string
		es   []resolver.Entry
		opts resolver.Options
		want string
	}{
		{"paper1981/unc", unc, resolver.Options{}, "3b88cf2d58c7cd3282e040ada81e5cf7b7179527ca465f2281998f9e6cbfe8ee"},
		{"paper1981/duke", duke, resolver.Options{}, "a47a856945c4bc0fafa6f647b6d9ca49a9f6618e296f44b9a6e95cbbece4a67b"},
		{"mapgen.Small", small, resolver.Options{}, "37d9772eaec2c9f9375d2dd354de31ce6b9c1ddbff90b0dc521d349f372b660f"},
		{"paper1981/unc/fold", unc, fold, "476f4edd81e290c590e711fcfad0532b299a29ea6dacee0c51a4b3cc21514aa2"},
		{"paper1981/duke/fold", duke, fold, "dd3279b54c53cb680dd726e166027f74b8a05fd79ae03823556bf6609a3b7823"},
		{"mapgen.Small/fold", small, fold, "5806cb092b80f80086c7fa4707ed379a31f802f99280d8242f09ab87d36fdd9f"},
		{"noncanonical", odd, resolver.Options{}, "b13939486fe3cf079a6adbc272575e4fcaa87dd9cdcbd52ef99eca9ea0c023b4"},
		{"noncanonical/fold", odd, fold, "5914f97220e018bf9a9b976590b340b3710a04576497e287e91fa241e2f558de"},
	}
	for _, c := range cases {
		img := compileT(t, c.es, c.opts)
		sum := sha256.Sum256(img)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: Compile digest %s, want %s", c.name, got, c.want)
		}
	}
}
