package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// cliArgsEnv, when set in the environment, makes the test binary run
// the pathalias CLI with these newline-separated arguments instead of
// the tests: the -watch identity test needs a process it can stop with
// a signal.
const cliArgsEnv = "PATHALIAS_TEST_CLI_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(cliArgsEnv); ok {
		os.Exit(run(strings.Split(args, "\n"), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// identityMap spells duke and research in two cases, reaches a domain,
// and declares a host only back links reach (leaf).
const identityMap = `unc	Duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), RESEARCH(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND), seismo(DEMAND)
ucbvax	research(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
seismo	.edu(DEDICATED)
.edu	= {caip.rutgers}
leaf	duke(25)
`

// TestWatchMatchesBatch: for every route-shaping flag, the first route
// file and image pathalias -watch writes are byte-identical to a batch
// run's with the same flags, and both print the same diagnostics.
func TestWatchMatchesBatch(t *testing.T) {
	mapPath := writeMap(t, identityMap)
	for _, flags := range [][]string{
		{"-l", "unc", "-c"},
		{"-l", "unc", "-D"},
		{"-l", "unc", "-f"},
		{"-l", "unc", "-B"},
		{"-l", "unc", "-g"},
		{"-l", "unc", "-s", "duke,Unknown"},
		{"-i", "-l", "UNC"},
		{"-i", "-c", "-l", "Unc", "-s", "RESEARCH"},
	} {
		t.Run(strings.Join(flags, " "), func(t *testing.T) {
			dir := t.TempDir()
			out := func(name string) string { return filepath.Join(dir, name) }

			var stdout, batchErr strings.Builder
			batchArgs := append(append([]string(nil), flags...), "-o", out("batch.txt"), "-o-db", out("batch.rdb"), mapPath)
			if code := run(batchArgs, &stdout, &batchErr); code != 0 {
				t.Fatalf("batch exit %d: %s", code, batchErr.String())
			}
			watchArgs := append(append([]string(nil), flags...), "-watch", "1h", "-o", out("watch.txt"), "-o-db", out("watch.rdb"), mapPath)
			watchErr := runWatchOnce(t, watchArgs)

			for _, name := range []string{"txt", "rdb"} {
				b, err := os.ReadFile(out("batch." + name))
				if err != nil {
					t.Fatal(err)
				}
				w, err := os.ReadFile(out("watch." + name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, w) {
					t.Errorf("-watch .%s differs from batch:\nbatch:\n%s\nwatch:\n%s", name, b, w)
				}
			}
			if batchErr.String() != watchErr {
				t.Errorf("stderr differs:\nbatch:\n%s\nwatch:\n%s", batchErr.String(), watchErr)
			}
		})
	}
}

// runWatchOnce runs pathalias with args (which include -watch) in a
// child process until it logs that it is watching, then stops it and
// returns its stderr without the structured log lines.
func runWatchOnce(t *testing.T, args []string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), cliArgsEnv+"="+strings.Join(args, "\n"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer timer.Stop()
	var diag strings.Builder
	watching := false
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "time=") {
			if strings.Contains(line, "msg=watching") && !watching {
				watching = true
				cmd.Process.Signal(syscall.SIGTERM)
			}
			continue
		}
		diag.WriteString(line + "\n")
	}
	cmd.Wait()
	if !watching {
		t.Fatalf("pathalias %s never started watching; stderr:\n%s", strings.Join(args, " "), diag.String())
	}
	return diag.String()
}
