package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const paperMap = `unc	duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), research(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND)
ucbvax	research(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
`

func writeMap(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "test.map")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPaperOutputViaCLI(t *testing.T) {
	p := writeMap(t, paperMap)
	var out, errb strings.Builder
	if code := run([]string{"-l", "unc", "-c", p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	want := `0	unc	%s
500	duke	duke!%s
800	phs	duke!phs!%s
3000	research	duke!research!%s
3300	ucbvax	duke!research!ucbvax!%s
3395	mit-ai	duke!research!ucbvax!%s@mit-ai
3395	stanford	duke!research!ucbvax!%s@stanford
`
	if out.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestStdinDefault: with no file named, pathalias reads the map from
// standard input (pathalias -l unc -c < map) and lists what it lists
// for the file.
func TestStdinDefault(t *testing.T) {
	p := writeMap(t, paperMap)
	var fromFile, fromStdin, errb strings.Builder
	if code := run([]string{"-l", "unc", "-c", p}, &fromFile, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	in, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	defer func(old *os.File) { os.Stdin = old }(os.Stdin)
	os.Stdin = in
	if code := run([]string{"-l", "unc", "-c"}, &fromStdin, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if fromStdin.String() != fromFile.String() {
		t.Errorf("from standard input:\n%s\nfrom the file:\n%s", fromStdin.String(), fromFile.String())
	}
}

func TestTerseDefault(t *testing.T) {
	p := writeMap(t, "a b(10)\n")
	var out, errb strings.Builder
	if code := run([]string{"-l", "a", p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if out.String() != "a\t%s\nb\tb!%s\n" {
		t.Errorf("terse output = %q", out.String())
	}
}

func TestVerboseStats(t *testing.T) {
	p := writeMap(t, paperMap)
	var out, errb strings.Builder
	if code := run([]string{"-l", "unc", "-v", p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"nodes", "hash table", "extractions", "stmts_replayed="} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errb.String())
		}
	}
}

// TestVerboseLinksIgnoreVantage: -v counts the map's links, whichever
// host the run invented back links from.
func TestVerboseLinksIgnoreVantage(t *testing.T) {
	p := writeMap(t, "a\tb(10)\nleaf\tb(25)\n")
	for _, local := range []string{"a", "b"} {
		var out, errb strings.Builder
		if code := run([]string{"-l", local, "-v", p}, &out, &errb); code != 0 {
			t.Fatalf("-l %s: exit %d", local, code)
		}
		if !strings.Contains(errb.String(), "3 nodes (3 hosts, 0 nets, 0 domains, 0 private), 2 links (0 alias edges)") {
			t.Errorf("-l %s: stderr:\n%s", local, errb.String())
		}
	}
}

func TestUnknownLocalHost(t *testing.T) {
	p := writeMap(t, "a b(10)\n")
	var out, errb strings.Builder
	if code := run([]string{"-l", "ghost", p}, &out, &errb); code != 1 {
		t.Errorf("exit %d want 1", code)
	}
	if !strings.Contains(errb.String(), "ghost") {
		t.Errorf("stderr = %q", errb.String())
	}
	// Under -i the message names the host as the map would spell it.
	errb.Reset()
	if code := run([]string{"-i", "-l", "Ghost", p}, &out, &errb); code != 1 {
		t.Errorf("-i: exit %d want 1", code)
	}
	if want := "pathalias: core: local host \"ghost\" not found in input\n"; errb.String() != want {
		t.Errorf("-i: stderr = %q, want %q", errb.String(), want)
	}
}

func TestMissingFile(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-l", "a", "/nonexistent/path.map"}, &out, &errb); code != 1 {
		t.Errorf("exit %d want 1", code)
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-Z"}, &out, &errb); code != 2 {
		t.Errorf("exit %d want 2", code)
	}
}

func TestSyntaxErrorExitCode(t *testing.T) {
	p := writeMap(t, "a @@(10)\n")
	var out, errb strings.Builder
	if code := run([]string{"-l", "a", p}, &out, &errb); code != 1 {
		t.Errorf("exit %d want 1", code)
	}
}

func TestIgnoreCaseFlag(t *testing.T) {
	p := writeMap(t, "Alpha Beta(HOURLY)\nBETA gamma(HOURLY)\n")
	var out, errb strings.Builder
	if code := run([]string{"-l", "ALPHA", "-i", p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "gamma\tbeta!gamma!%s") {
		t.Errorf("output = %q", out.String())
	}
}

func TestDomainsOnlyFlag(t *testing.T) {
	p := writeMap(t, "a .edu(95)\n.edu = {.sub}\na b(10)\n")
	var out, errb strings.Builder
	if code := run([]string{"-l", "a", "-D", p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.TrimSpace(out.String()) != ".edu\t%s" {
		t.Errorf("domains-only output = %q", out.String())
	}
}

func TestUnreachableOnStderr(t *testing.T) {
	p := writeMap(t, "a b(10)\nisland\n")
	var out, errb strings.Builder
	if code := run([]string{"-l", "a", p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errb.String(), "island: no route") {
		t.Errorf("stderr = %q", errb.String())
	}
	if strings.Contains(out.String(), "island") {
		t.Error("unreachable host in stdout")
	}
}

func TestAvoidFlag(t *testing.T) {
	p := writeMap(t, "a b(10), c(10)\nb d(10)\nc d(10)\n")
	var out, errb strings.Builder
	if code := run([]string{"-l", "a", "-s", "b", p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "d\tc!d!%s") {
		t.Errorf("output = %q", out.String())
	}
}

func TestFirstHopFlag(t *testing.T) {
	p := writeMap(t, "a b(10)\nb c(20)\n")
	var out, errb strings.Builder
	if code := run([]string{"-l", "a", "-c", "-f", p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	// c's printed cost is the first-hop cost 10, not 30.
	if !strings.Contains(out.String(), "10\tc\tb!c!%s") {
		t.Errorf("output = %q", out.String())
	}
}

func TestTraceFlag(t *testing.T) {
	p := writeMap(t, paperMap)
	var out, errb strings.Builder
	if code := run([]string{"-l", "unc", "-t", "duke", p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	se := errb.String()
	for _, want := range []string{
		"trace: duke",
		"out-links (3)",
		"<- unc cost 500",
		"mapped at cost 500",
		"path: unc -> duke",
		"[tree]",
	} {
		if !strings.Contains(se, want) {
			t.Errorf("trace missing %q:\n%s", want, se)
		}
	}
	// Tracing an unknown host reports but does not fail the run.
	errb.Reset()
	if code := run([]string{"-l", "unc", "-t", "ghost", p}, &out, &errb); code != 0 {
		t.Errorf("exit %d", code)
	}
	if !strings.Contains(errb.String(), `no host "ghost"`) {
		t.Errorf("stderr = %q", errb.String())
	}
}

// TestTraceBackLinkedHost pins the trace of a run's invented back links:
// each node's declared links come first, then its invented ones, and
// the winning path's edges are marked.
func TestTraceBackLinkedHost(t *testing.T) {
	p := writeMap(t, "a\tb(10)\nleaf\tb(25)\n")
	for _, tc := range []struct {
		host string
		want string
	}{
		{"leaf", `trace: leaf (id 2, file "` + p + `")
trace:   out-links (1):
trace:     -> b cost 25 op !/LEFT
trace:   in-links:
trace:     <- b cost 25 op !/LEFT [invented,tree]
trace:   mapped at cost 35, 2 hops
trace:   path: a -> b -> leaf
`},
		{"b", `trace: b (id 1, file "` + p + `")
trace:   out-links (1):
trace:     -> leaf cost 25 op !/LEFT [invented,tree]
trace:   in-links:
trace:     <- a cost 10 op !/LEFT [tree]
trace:     <- leaf cost 25 op !/LEFT
trace:   mapped at cost 10, 1 hops
trace:   path: a -> b
`},
	} {
		var out, errb strings.Builder
		if code := run([]string{"-l", "a", "-t", tc.host, p}, &out, &errb); code != 0 {
			t.Fatalf("-t %s: exit %d", tc.host, code)
		}
		if errb.String() != tc.want {
			t.Errorf("-t %s:\n%s\nwant:\n%s", tc.host, errb.String(), tc.want)
		}
	}
}

// TestTraceSecondBestPath: under -g a path may run through a node's
// non-winning label. motown's winning route is b!caip!motown!%s, through
// caip's clean label, while caip's own winning label is the domain one.
func TestTraceSecondBestPath(t *testing.T) {
	p := writeMap(t, `a	d1(50), b(100)
.dom	= {caip}(50)
d1	.dom(0)
b	caip(50)
caip	motown(25)
`)
	var out, errb strings.Builder
	if code := run([]string{"-l", "a", "-g", "-t", "motown", p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	want := `trace: motown (id 5, file "` + p + `")
trace:   out-links (0):
trace:   in-links:
trace:     <- caip cost 25 op !/LEFT [tree]
trace:   mapped at cost 175, 3 hops
trace:   path: a -> b -> caip -> motown
`
	if errb.String() != want {
		t.Errorf("-g -t motown:\n%s\nwant:\n%s", errb.String(), want)
	}
}

func TestTraceUnmappedHost(t *testing.T) {
	p := writeMap(t, "a b(10)\nisland\n")
	var out, errb strings.Builder
	if code := run([]string{"-l", "a", "-t", "island", p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errb.String(), "not mapped") {
		t.Errorf("stderr = %q", errb.String())
	}
	if !strings.Contains(errb.String(), "in-links: none") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestSecondBestFlag(t *testing.T) {
	p := writeMap(t, `a d1(50), b(100)
.dom = {caip}(50)
d1 .dom(0)
b caip(50)
caip motown(25)
`)
	var out, errb strings.Builder
	if code := run([]string{"-l", "a", "-g", p}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "motown\tb!caip!motown!%s") {
		t.Errorf("second-best output = %q", out.String())
	}
}

// TestOutputFileIsReplaced: -o publishes a new file in place of the old
// one instead of rewriting it, so a reader that holds the old file (here
// a hard link to it) keeps the old bytes; the new file holds exactly
// what standard output would.
func TestOutputFileIsReplaced(t *testing.T) {
	p := writeMap(t, paperMap)
	dir := t.TempDir()
	outPath, held := filepath.Join(dir, "routes"), filepath.Join(dir, "held")
	old := "previous routes\n"
	if err := os.WriteFile(outPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(outPath, held); err != nil {
		t.Skipf("no hard links here: %v", err)
	}
	args := []string{"-l", "unc", "-c", p}
	var want, errb strings.Builder
	if code := run(args, &want, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var out strings.Builder
	if code := run(append([]string{"-o", outPath}, args...), &out, &errb); code != 0 {
		t.Fatalf("-o: exit %d, stderr: %s", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("-o also wrote %q to stdout", out.String())
	}
	if got, err := os.ReadFile(outPath); err != nil || string(got) != want.String() {
		t.Errorf("-o file = %q, %v; want the stdout output %q", got, err, want.String())
	}
	if got, err := os.ReadFile(held); err != nil || string(got) != old {
		t.Errorf("the old file now reads %q, %v; want its old bytes %q", got, err, old)
	}
}
