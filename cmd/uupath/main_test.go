package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDB(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "routes.db")
	db := "0\t.edu\tseismo!%s\n500\tmcvax\tseismo!mcvax!%s\n100\tseismo\tseismo!%s\n"
	if err := os.WriteFile(p, []byte(db), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestResolveDestination(t *testing.T) {
	db := writeDB(t)
	var out, errb strings.Builder
	if code := run([]string{"-d", db, "mcvax", "piet"}, strings.NewReader(""), &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if strings.TrimSpace(out.String()) != "seismo!mcvax!piet" {
		t.Errorf("output = %q", out.String())
	}
}

func TestResolveWithoutUserKeepsMarker(t *testing.T) {
	db := writeDB(t)
	var out, errb strings.Builder
	if code := run([]string{"-d", db, "seismo"}, strings.NewReader(""), &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.TrimSpace(out.String()) != "seismo!%s" {
		t.Errorf("output = %q", out.String())
	}
}

func TestResolveDomainSuffix(t *testing.T) {
	db := writeDB(t)
	var out, errb strings.Builder
	if code := run([]string{"-d", db, "caip.rutgers.edu", "pleasant"}, strings.NewReader(""), &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.TrimSpace(out.String()) != "seismo!caip.rutgers.edu!pleasant" {
		t.Errorf("output = %q", out.String())
	}
}

func TestRewriteModes(t *testing.T) {
	db := writeDB(t)
	cases := []struct {
		mode string
		want string
	}{
		{"off", "a!b!seismo!mcvax!piet"},
		{"firsthop", ""}, // first hop "a" unknown: error
		{"rightmost", "seismo!mcvax!piet"},
	}
	for _, c := range cases {
		var out, errb strings.Builder
		code := run([]string{"-d", db, "-r", "-m", c.mode, "-local", "here", "a!b!seismo!mcvax!piet"}, strings.NewReader(""), &out, &errb)
		if c.want == "" {
			if code == 0 {
				t.Errorf("mode %s: expected failure", c.mode)
			}
			continue
		}
		if code != 0 {
			t.Errorf("mode %s: exit %d: %s", c.mode, code, errb.String())
			continue
		}
		if strings.TrimSpace(out.String()) != c.want {
			t.Errorf("mode %s: output %q want %q", c.mode, out.String(), c.want)
		}
	}
}

func TestGuessFlag(t *testing.T) {
	db := writeDB(t) // knows seismo, mcvax, .edu
	var out, errb strings.Builder
	// Ambiguous a!b!user@seismo: RFC822 reading (seismo first) resolves,
	// UUCP reading (a first) does not.
	if code := run([]string{"-d", db, "-guess", "a!b!user@seismo"}, strings.NewReader(""), &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if strings.TrimSpace(out.String()) != "seismo!a!b!user" {
		t.Errorf("guess = %q", out.String())
	}
	out.Reset()
	if code := run([]string{"-d", db, "-guess", "mcvax!user@unknown"}, strings.NewReader(""), &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.TrimSpace(out.String()) != "mcvax!unknown!user" {
		t.Errorf("guess = %q", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader(""), &out, &errb); code != 2 {
		t.Errorf("no args: exit %d want 2", code)
	}
	if code := run([]string{"-d", "/nonexistent", "x"}, strings.NewReader(""), &out, &errb); code != 1 {
		t.Errorf("bad db: exit %d want 1", code)
	}
	db := writeDB(t)
	if code := run([]string{"-d", db, "-r", "-m", "bogus", "x!y"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Errorf("bad mode: exit %d want 2", code)
	}
	if code := run([]string{"-d", db, "unknowable"}, strings.NewReader(""), &out, &errb); code != 1 {
		t.Errorf("no route: exit %d want 1", code)
	}
}

const vantageMapSrc = `unc	duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), research(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND)
ucbvax	research(DAILY)
`

func writeMap(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.map")
	if err := os.WriteFile(path, []byte(vantageMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestVantageQueries covers -maps/-f: routes computed in-process from
// map sources, originating at the requested vantage host.
func TestVantageQueries(t *testing.T) {
	mapPath := writeMap(t)
	cases := []struct {
		flag, from, dest, want string
	}{
		{"-f", "unc", "ucbvax", "duke!research!ucbvax!honey"},
		{"-f", "duke", "ucbvax", "research!ucbvax!honey"},
		{"-f", "ucbvax", "unc", "research!duke!unc!honey"},
		{"-i -f", "DUKE", "UCBVAX", "research!ucbvax!honey"},
	}
	for _, c := range cases {
		var out, errb strings.Builder
		args := append([]string{"-maps", mapPath}, strings.Fields(c.flag)...)
		if code := run(append(args, c.from, c.dest, "honey"), strings.NewReader(""), &out, &errb); code != 0 {
			t.Fatalf("%s %s %s: exit %d, stderr %s", c.flag, c.from, c.dest, code, errb.String())
		}
		if got := strings.TrimSpace(out.String()); got != c.want {
			t.Errorf("%s %s %s = %q, want %q", c.flag, c.from, c.dest, got, c.want)
		}
	}
}

// TestVantageUsageErrors: -maps and -f come as a pair, and -d excludes
// them.
func TestVantageUsageErrors(t *testing.T) {
	mapPath := writeMap(t)
	var out, errb strings.Builder
	if code := run([]string{"-maps", mapPath, "x"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Errorf("-maps without -f: exit %d want 2", code)
	}
	if code := run([]string{"-d", "x.db", "-f", "unc", "x"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Errorf("-f with -d: exit %d want 2", code)
	}
	if code := run([]string{"-maps", mapPath, "-d", "x.db", "-f", "unc", "x"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Errorf("-maps with -d: exit %d want 2", code)
	}
	if code := run([]string{"-maps", mapPath, "-f", "nosuchhost", "duke"}, strings.NewReader(""), &out, &errb); code != 1 {
		t.Errorf("unknown vantage: exit %d want 1", code)
	}
}
