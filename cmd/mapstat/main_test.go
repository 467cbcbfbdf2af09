package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeMap(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "m.map")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const statMap = "a relay(10)\nrelay x(10), y(10), z(10)\n"

func TestGraphOnlyReport(t *testing.T) {
	p := writeMap(t, statMap)
	var out, errb strings.Builder
	if code := run([]string{p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "nodes: 5") {
		t.Errorf("output = %q", out.String())
	}
	if strings.Contains(out.String(), "mean hops") {
		t.Error("route stats shown without -l")
	}
}

// TestStdinDefault: with no file named, mapstat reads the map from
// standard input (mapstat -l a < map) and reports what it reports for
// the file.
func TestStdinDefault(t *testing.T) {
	p := writeMap(t, statMap)
	var fromFile, fromStdin, errb strings.Builder
	if code := run([]string{"-l", "a", p}, &fromFile, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	in, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	defer func(old *os.File) { os.Stdin = old }(os.Stdin)
	os.Stdin = in
	if code := run([]string{"-l", "a"}, &fromStdin, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if fromStdin.String() != fromFile.String() || !strings.Contains(fromStdin.String(), "nodes: 5") {
		t.Errorf("from standard input:\n%s\nfrom the file:\n%s", fromStdin.String(), fromFile.String())
	}
}

func TestRouteReport(t *testing.T) {
	p := writeMap(t, statMap)
	var out, errb strings.Builder
	if code := run([]string{"-l", "a", p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"mean hops", "busiest relays", "relay"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestDotOutput(t *testing.T) {
	p := writeMap(t, statMap)
	dotPath := filepath.Join(t.TempDir(), "g.dot")
	var out, errb strings.Builder
	if code := run([]string{"-l", "a", "-dot", dotPath, p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph pathalias") {
		t.Errorf("dot = %q", data)
	}
}

func TestDotTreeOutput(t *testing.T) {
	p := writeMap(t, statMap)
	dotPath := filepath.Join(t.TempDir(), "t.dot")
	var out, errb strings.Builder
	if code := run([]string{"-l", "a", "-tree", "-dot", dotPath, p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph routes") {
		t.Errorf("dot = %q", data)
	}
}

func TestErrors(t *testing.T) {
	p := writeMap(t, statMap)
	var out, errb strings.Builder
	if code := run([]string{"-l", "ghost", p}, &out, &errb); code != 1 {
		t.Errorf("unknown local: exit %d want 1", code)
	}
	if code := run([]string{"/nonexistent.map"}, &out, &errb); code != 1 {
		t.Errorf("missing file: exit %d want 1", code)
	}
	bad := writeMap(t, "a @@(10)\n")
	if code := run([]string{bad}, &out, &errb); code != 1 {
		t.Errorf("syntax error: exit %d want 1", code)
	}
	dotPath := filepath.Join(t.TempDir(), "t.dot")
	if code := run([]string{"-tree", "-dot", dotPath, p}, &out, &errb); code != 2 {
		t.Errorf("-tree without -l: exit %d want 2", code)
	}
}

// TestStatsIgnoreVantage: the graph statistics describe the map, so
// mapping from a vantage, which invents back links for leaf, must not
// change them.
func TestStatsIgnoreVantage(t *testing.T) {
	p := writeMap(t, "a b(10)\nleaf b(25)\n")
	for _, args := range [][]string{{p}, {"-l", "a", p}, {"-l", "b", p}} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errb.String())
		}
		for _, want := range []string{"links: 2 ", "strongly connected components: 3 "} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%v: output missing %q:\n%s", args, want, out.String())
			}
		}
	}
}
