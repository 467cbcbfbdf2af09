package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pathalias/internal/routedb"
)

// pipelineQueries exercises every reply shape of the line protocol:
// exact hits, suffix hits, default users, misses (with %q-quoted
// destinations), malformed requests, empty lines, commands, and
// whitespace variants.
var pipelineQueries = []string{
	"duke honey",
	"caip.rutgers.edu pleasant",
	"unc",
	"x.dept.edu",
	"nowhere u",
	"no.where.at.all",
	"a b c",
	"",
	"   ",
	"\tduke\thoney\t",
	"duke. honey",
	"stats extrauser",
}

// goldenReplies pins the reply to each request line, per daemon (see
// goldenDaemons): every pipelineQueries line; from= and overlay= in both
// orders; a user literally named overlay=…; the explain and impact
// forms; -d mode's what-if refusals; non-ASCII hosts with and without
// FoldCase; U+00A0, U+0085, U+2003 and friends as separators; and
// invalid UTF-8. The replies were recorded from the string-based handler
// that the byte handler replaced, and stay the reference it is held to.
var goldenReplies = []struct{ daemon, line, reply string }{
	{"d", "duke honey", "ok duke!honey"},
	{"d", "caip.rutgers.edu pleasant", "ok seismo!caip.rutgers.edu!pleasant"},
	{"d", "unc", "ok %s"},
	{"d", "x.dept.edu", "ok seismo!x.dept.edu!%s"},
	{"d", "nowhere u", "err routedb: no route to \"nowhere\""},
	{"d", "no.where.at.all", "err routedb: no route to \"no.where.at.all\""},
	{"d", "a b c", "err want: [from=host] [overlay=spec] dest [user]"},
	{"d", "", "err empty request"},
	{"d", "   ", "err empty request"},
	{"d", "\tduke\thoney\t", "ok duke!honey"},
	{"d", "duke. honey", "ok duke!honey"},
	{"d", "stats extrauser", "err routedb: no route to \"stats\""},
	{"d", "quit", "ok bye"},
	{"d", "quit extra", "err routedb: no route to \"quit\""},
	{"d", "from= quit", "ok bye"},
	{"d", "trace", "err re-map traces require -map mode"},
	{"d", "from=unc stats", "err vantage queries (from=) require -map mode"},
	{"d", "stats someuser", "err routedb: no route to \"stats\""},
	{"d", "from=duke unc honey", "err vantage queries (from=) require -map mode"},
	{"d", "from=", "err empty request"},
	{"d", "from= duke honey", "ok duke!honey"},
	{"d", "from=duke", "err empty request"},
	{"d", "from=duke a b c", "err want: [from=host] [overlay=spec] dest [user]"},
	{"d", "overlay=dead,a,b duke", "err what-if queries require -map mode"},
	{"d", "explain duke", "err what-if queries require -map mode"},
	{"d", "impact overlay=dead,a,b", "err what-if queries require -map mode"},
	{"d", "from=duke overlay=dead,a,b duke", "err what-if queries require -map mode"},
	{"d", "overlay=dead,a,b", "err empty request"},
	{"d", "overlay=dead,a,b a b c", "err want: [from=host] [overlay=spec] dest [user]"},
	{"d", "explain", "err what-if queries require -map mode"},
	{"d", "impact", "err what-if queries require -map mode"},
	{"d", "duke overlay=dead,a,b", "ok duke!overlay=dead,a,b"},
	{"d", "explainer duke", "err routedb: no route to \"explainer\""},
	{"d", "impacts", "err routedb: no route to \"impacts\""},
	{"d", "overlay", "err routedb: no route to \"overlay\""},
	{"d", "overlay= duke", "err what-if queries require -map mode"},
	{"d", "duke\u00a0honey", "ok duke!honey"},
	{"d", "duke\u0085honey", "ok duke!honey"},
	{"d", "duke\u2003honey", "ok duke!honey"},
	{"d", "\u00a0duke honey\u2003", "ok duke!honey"},
	{"d", "\u2003\u00a0", "err empty request"},
	{"d", "duke\u00a0\u0085\u2003honey\u00a0", "ok duke!honey"},
	{"d", "caip.rutgers.edu\u2003pleasant", "ok seismo!caip.rutgers.edu!pleasant"},
	{"d", "quit\u00a0", "ok bye"},
	{"d", "\u2003trace", "err re-map traces require -map mode"},
	{"d", "explain\u00a0duke", "err what-if queries require -map mode"},
	{"d", "overlay=dead,a,b\u2003duke", "err what-if queries require -map mode"},
	{"d", "müller u", "err routedb: no route to \"müller\""},
	{"d", "MÜLLER u", "err routedb: no route to \"MÜLLER\""},
	{"d", "x.müller.edu u", "ok seismo!x.müller.edu!u"},
	{"d", "düké honey", "err routedb: no route to \"düké\""},
	{"d", "\xff honey", "err routedb: no route to \"\\xff\""},
	{"d", "du\xffke", "err routedb: no route to \"du\\xffke\""},
	{"d", "duke \xfe\xff", "ok duke!\xfe\xff"},
	{"d", "\xc3", "err routedb: no route to \"\\xc3\""},
	{"d", "duke\xc2 honey", "err routedb: no route to \"duke\\xc2\""},
	{"d", "\xe2\x80 duke", "err routedb: no route to \"\\xe2\\x80\""},
	{"d", "x.dept.edu \xff", "ok seismo!x.dept.edu!\xff"},
	{"d", "� u", "err routedb: no route to \"�\""},
	{"fold", "müller u", "ok via!u"},
	{"fold", "MÜLLER u", "ok via!u"},
	{"fold", "MÜLLER\u00a0u", "ok via!u"},
	{"fold", "Müller. u", "ok via!u"},
	{"fold", "müller", "ok via!%s"},
	{"fold", "x.MÜLLER.EDU u", "ok seismo!x.müller.edu!u"},
	{"fold", "DUKE honey", "ok duke!honey"},
	{"fold", "Duke.", "ok duke!%s"},
	{"fold", "CAIP.Rutgers.EDU pleasant", "ok seismo!caip.rutgers.edu!pleasant"},
	{"fold", "\u2028duke\u2029HONEY", "ok duke!HONEY"},
	{"fold", "M\xffLLER u", "err routedb: no route to \"M\\xffLLER\""},
	{"fold", "Ü u", "err routedb: no route to \"Ü\""},
	{"fold", "ÜBER.EDU u", "ok seismo!über.edu!u"},
	{"fold", "NOWHERE u", "err routedb: no route to \"NOWHERE\""},
	{"fold", "NöWHERE u", "err routedb: no route to \"NöWHERE\""},
	{"fold", "quit\u2003", "ok bye"},
	{"fold", "from=müller duke", "err vantage queries (from=) require -map mode"},
	{"fold", "overlay=dead,ü,b MÜLLER", "err what-if queries require -map mode"},
	{"map", "research honey", "ok duke!research!honey"},
	{"map", "ucbvax", "ok duke!research!ucbvax!%s"},
	{"map", "nowhere u", "err routedb: no route to \"nowhere\""},
	{"map", "from=duke ucbvax honey", "ok research!ucbvax!honey"},
	{"map", "from=nosuchhost duke honey", "err vantage nosuchhost: remap: local host \"nosuchhost\" not found in input"},
	{"map", "from=duke overlay=dead,duke,phs unc honey", "ok unc!honey"},
	{"map", "overlay=dead,unc,duke from=duke research", "err routedb: no route to \"from=duke\""},
	{"map", "overlay=dead,unc,duke from=duke", "err routedb: no route to \"from=duke\""},
	{"map", "overlay=dead,unc,duke research honey", "ok phs!duke!research!honey"},
	{"map", "overlay=dead,unc,duke research", "ok phs!duke!research!%s"},
	{"map", "overlay=dead,unc,duke", "err empty request"},
	{"map", "overlay=dead,unc,duke a b c", "err want: [from=host] [overlay=spec] dest [user]"},
	{"map", "overlay= research", "err whatif: empty overlay spec"},
	{"map", "overlay=dead,unc,nosuch research", "err whatif: unknown host \"nosuch\""},
	{"map", "from= overlay=dead,unc,duke research honey", "ok phs!duke!research!honey"},
	{"map", "from=nosuchhost overlay=dead,unc,duke research", "err remap: local host \"nosuchhost\" not found in input"},
	{"map", "duke overlay=dead,a,b", "ok duke!overlay=dead,a,b"},
	{"map", "from=duke duke overlay=dead,a,b", "ok overlay=dead,a,b"},
	{"map", "explain research", "ok route duke!research!%s cost 3000; unc !> duke link 500 total 500 (link h1 r0); duke !> research link 2500 total 3000 (link h2 r2)"},
	{"map", "explain overlay=dead,unc,duke research", "ok base: route duke!research!%s cost 3000; unc !> duke link 500 total 500 (link h1 r0); duke !> research link 2500 total 3000 (link h2 r2) || overlay: route phs!duke!research!%s cost 5000; unc !> phs link 2000 total 2000 (link h1 r1); phs !> duke link 500 total 2500 (link h2 r0); duke !> research link 2500 total 5000 (link h3 r2)"},
	{"map", "explain from=duke overlay=dead,duke,phs unc", "ok base: route unc!%s cost 300; duke !> unc link 300 total 300 (link h1 r4) || overlay: route unc!%s cost 300; duke !> unc link 300 total 300 (link h1 r4)"},
	{"map", "explain overlay=dead,duke,phs from=duke unc", "ok base: route unc!%s cost 300; duke !> unc link 300 total 300 (link h1 r4) || overlay: route unc!%s cost 300; duke !> unc link 300 total 300 (link h1 r4)"},
	{"map", "explain from=duke research", "ok route research!%s cost 2500; duke !> research link 2500 total 2500 (link h1 r2)"},
	{"map", "explain from=nosuchhost research", "err remap: local host \"nosuchhost\" not found in input"},
	{"map", "explain overlay= research", "err whatif: empty overlay spec"},
	{"map", "explain research ucbvax", "err want: explain [from=host] [overlay=spec] dest"},
	{"map", "explain", "err want: explain [from=host] [overlay=spec] dest"},
	{"map", "explain nosuchhost", "ok no route (routedb: no route to \"nosuchhost\")"},
	{"map", "impact overlay=dead,unc,duke", "ok gen=1 routes=5 changed=4 added=0 removed=0 rerouted=4 recosted=0 duke:rerouted phs:rerouted research:rerouted ucbvax:rerouted"},
	{"map", "impact from=duke overlay=dead,duke,research", "ok gen=1 routes=5 changed=2 added=0 removed=2 rerouted=0 recosted=0 research:removed ucbvax:removed"},
	{"map", "impact overlay=dead,duke,research from=duke", "ok gen=1 routes=5 changed=2 added=0 removed=2 rerouted=0 recosted=0 research:removed ucbvax:removed"},
	{"map", "impact", "err want: impact [from=host] overlay=spec"},
	{"map", "impact overlay=", "err whatif: empty overlay spec"},
	{"map", "impact overlay=dead,unc,duke research", "err want: impact [from=host] overlay=spec"},
	{"map", "impact from=duke", "err want: impact [from=host] overlay=spec"},
	{"map", "impact overlay=dead,a,a", "err whatif: self-link a a"},
	{"map", "from=duke explain", "err routedb: no route to \"explain\""},
	{"map", "from=duke impact", "err routedb: no route to \"impact\""},
	{"map", "stats explain", "err routedb: no route to \"stats\""},
	{"map", "overlay=dead,unc,duke\u00a0research\u2003honey", "ok phs!duke!research!honey"},
	{"map", "explain\u00a0research", "ok route duke!research!%s cost 3000; unc !> duke link 500 total 500 (link h1 r0); duke !> research link 2500 total 3000 (link h2 r2)"},
	{"map", "impact\u0085overlay=dead,unc,duke", "ok gen=1 routes=5 changed=4 added=0 removed=0 rerouted=4 recosted=0 duke:rerouted phs:rerouted research:rerouted ucbvax:rerouted"},
	{"map", "explain\u2003overlay=dead,unc,duke\u00a0research", "ok base: route duke!research!%s cost 3000; unc !> duke link 500 total 500 (link h1 r0); duke !> research link 2500 total 3000 (link h2 r2) || overlay: route phs!duke!research!%s cost 5000; unc !> phs link 2000 total 2000 (link h1 r1); phs !> duke link 500 total 2500 (link h2 r0); duke !> research link 2500 total 5000 (link h3 r2)"},
	{"map", "overlay=dead,unc,müller research", "err whatif: unknown host \"müller\""},
	{"map", "explain müller", "ok no route (routedb: no route to \"müller\")"},
	{"map", "from=müller duke", "err vantage müller: remap: local host \"müller\" not found in input"},
	{"map", "overlay=dead,unc,\xff research", "err whatif: unknown host \"\\xff\""},
	{"map", "explain \xff", "ok no route (routedb: no route to \"\\xff\")"},
	{"map", "trace x", "err routedb: no route to \"trace\""},
	{"map", "from=duke trace", "err routedb: no route to \"trace\""},
}

// goldenDaemons builds the daemons goldenReplies was recorded against:
// "d" is a -d daemon over testRoutes, "fold" the same under FoldCase
// with a non-ASCII host added, "map" a -map daemon over testMapSrc from
// unc.
func goldenDaemons(t *testing.T) map[string]*daemon {
	t.Helper()
	d, err := newDaemon(writeRoutes(t, t.TempDir(), testRoutes), false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	fold, err := newDaemon(writeRoutes(t, t.TempDir(), foldRoutes), false, routedb.Options{FoldCase: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*daemon{"d": d, "fold": fold, "map": newTestMapDaemon(t)}
}

const foldRoutes = "0\tmüller\tvia!%s\n" + testRoutes

// golden returns the pinned reply to line on the named daemon.
func golden(t *testing.T, daemon, line string) string {
	t.Helper()
	for _, g := range goldenReplies {
		if g.daemon == daemon && g.line == line {
			return g.reply
		}
	}
	t.Fatalf("no golden reply for %s %q", daemon, line)
	return ""
}

// goldenBatch returns the named daemon's golden request lines that keep
// the connection open, and the reply stream they must produce.
func goldenBatch(daemon string) (input, want string) {
	var in, out strings.Builder
	for _, g := range goldenReplies {
		if g.daemon == daemon && g.reply != "ok bye" {
			in.WriteString(g.line + "\n")
			out.WriteString(g.reply + "\n")
		}
	}
	return in.String(), out.String()
}

// askLine answers one request line the way a line-protocol connection
// does.
func askLine(d *daemon, line string) (reply string, closing bool) {
	out, closing := d.handleLine(nil, []byte(line), new(lineState), true)
	return string(out), closing
}

// TestGoldenReplies holds every golden line to its pinned reply, one
// line per connection (so quit closes only its own) and then each
// daemon's non-closing lines as one pipelined batch.
func TestGoldenReplies(t *testing.T) {
	ds := goldenDaemons(t)
	for _, g := range goldenReplies {
		if got := serveAll(t, ds[g.daemon], g.line+"\n"); got != g.reply+"\n" {
			t.Errorf("%s %q: got %q, want %q", g.daemon, g.line, got, g.reply+"\n")
		}
	}
	for name, d := range ds {
		in, want := goldenBatch(name)
		if got := serveAll(t, d, in); got != want {
			t.Errorf("%s pipelined batch diverges:\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// serveAll runs input through one pipelined serveConn and returns the
// reply stream.
func serveAll(t *testing.T, d *daemon, input string) string {
	t.Helper()
	var out strings.Builder
	if err := d.serveConn(strings.NewReader(input), &out); err != nil {
		t.Fatalf("serveConn: %v", err)
	}
	return out.String()
}

// pipelineWant is the golden reply stream to pipelineQueries.
func pipelineWant(t *testing.T) string {
	var want strings.Builder
	for _, q := range pipelineQueries {
		want.WriteString(golden(t, "d", q) + "\n")
	}
	return want.String()
}

// TestPipelinedMatchesSingleQuery byte-compares one pipelined batch of
// every query shape against the golden replies, with and without
// FoldCase (the queries are lower case, so folding changes nothing).
func TestPipelinedMatchesSingleQuery(t *testing.T) {
	for _, fold := range []bool{false, true} {
		t.Run(fmt.Sprintf("fold=%v", fold), func(t *testing.T) {
			path := writeRoutes(t, t.TempDir(), testRoutes)
			d, err := newDaemon(path, false, routedb.Options{FoldCase: fold}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			want := pipelineWant(t)
			got := serveAll(t, d, strings.Join(pipelineQueries, "\n")+"\n")
			if got != want {
				t.Errorf("pipelined replies diverge:\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestPipelinedMatchesSingleQueryBinary is the same check over a
// compiled (mmap-served) database — the -db zero-copy path — and over
// the same image served by -d, which takes either format.
func TestPipelinedMatchesSingleQueryBinary(t *testing.T) {
	dir := t.TempDir()
	textPath := writeRoutes(t, dir, testRoutes)
	td, err := newDaemon(textPath, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	binPath := dir + "/routes.rdb"
	f, err := newDaemonBinaryFile(td, binPath)
	if err != nil {
		t.Fatal(err)
	}
	// The background image audit holds the mapping; join it before the
	// explicit Close (Close forbids in-flight queries).
	defer func() {
		f.audits.Wait()
		f.store.DB().Close()
	}()

	dd, err := newDaemon(binPath, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatalf("-d over an image: %v", err)
	}
	defer dd.audits.Wait()

	want := pipelineWant(t)
	input := strings.Join(pipelineQueries, "\n") + "\n"
	if got := serveAll(t, f, input); got != want {
		t.Errorf("binary pipelined replies diverge:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := serveAll(t, dd, input); got != want {
		t.Errorf("-d image pipelined replies diverge:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// newDaemonBinaryFile compiles src's current database to path and opens
// a -db daemon over it.
func newDaemonBinaryFile(src *daemon, path string) (*daemon, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := src.store.DB().WriteBinary(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return newDaemon(path, true, routedb.Options{}, io.Discard)
}

// TestLongLineKeepsServing is the satellite regression: a request line
// beyond the 1 MiB cap must be answered with "err line too long" and
// the connection must keep serving — the pre-fix behavior was a silent
// bufio.ErrTooLong connection kill.
func TestLongLineKeepsServing(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", maxLineLen+100)
	input := "duke honey\n" + long + "\nduke honey\nquit\n"
	got := serveAll(t, d, input)
	want := "ok duke!honey\nerr line too long\nok duke!honey\nok bye\n"
	if got != want {
		t.Errorf("long-line replies = %q, want %q", got, want)
	}
}

// TestLongLineUnterminatedAtEOF: a too-long line that hits EOF before
// its newline still gets the error reply, and the stream ends cleanly.
func TestLongLineUnterminatedAtEOF(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	input := "duke honey\n" + strings.Repeat("y", maxLineLen+100)
	got := serveAll(t, d, input)
	want := "ok duke!honey\nerr line too long\n"
	if got != want {
		t.Errorf("replies = %q, want %q", got, want)
	}
}

// TestBoundaryLines drives lines around the read-buffer and cap sizes
// through the slow accumulation path: a request longer than the 64 KiB
// read buffer but under the cap must still resolve correctly.
func TestBoundaryLines(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// A >64 KiB user argument on an exact hit: crosses ReadSlice's
	// buffer, stays under the cap.
	bigUser := strings.Repeat("u", connBufSize+1000)
	input := "duke " + bigUser + "\nquit\n"
	got := serveAll(t, d, input)
	want := "ok duke!" + bigUser + "\nok bye\n"
	if got != want {
		t.Errorf("big-user reply mismatch (got %d bytes, want %d)", len(got), len(want))
	}
}

// TestPipelinedCRLF: \r\n line endings are framed like bufio.ScanLines
// (the pre-rewrite scanner).
func TestPipelinedCRLF(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	got := serveAll(t, d, "duke honey\r\nquit\r\n")
	if want := "ok duke!honey\nok bye\n"; got != want {
		t.Errorf("CRLF replies = %q, want %q", got, want)
	}
}

// TestPipelinedNonASCII: non-ASCII hosts, separators and invalid UTF-8
// under FoldCase, pipelined, answer exactly as pinned.
func TestPipelinedNonASCII(t *testing.T) {
	d, err := newDaemon(writeRoutes(t, t.TempDir(), foldRoutes), false, routedb.Options{FoldCase: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	in, want := goldenBatch("fold")
	if got := serveAll(t, d, in); got != want {
		t.Errorf("non-ASCII replies:\ngot %q\nwant %q", got, want)
	}
}

// TestConcurrentPipelinedProtocol is the satellite race suite: many
// connections issue interleaved pipelined resolves and stats while the
// store hot-swaps between equivalent databases. Every resolve reply is
// byte-compared against its golden reply; stats replies
// (counter-dependent) are shape-checked.
func TestConcurrentPipelinedProtocol(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Two databases with identical routes: swapping them churns the
	// store pointer under load without changing any answer.
	dbA := d.store.DB()
	dbB, err := routedb.LoadWith(strings.NewReader(testRoutes), routedb.Options{})
	if err != nil {
		t.Fatal(err)
	}

	resolves := []string{
		"duke honey", "caip.rutgers.edu pleasant", "unc", "x.dept.edu",
		"nowhere u", "a b c", "", "duke. honey",
	}
	want := make(map[string]string, len(resolves))
	for _, q := range resolves {
		want[q] = golden(t, "d", q)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.serveTCP(ctx, ln)

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				d.store.Swap(dbB)
			} else {
				d.store.Swap(dbA)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const conns, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			// One pipelined batch per round: every resolve query plus a
			// stats probe, written back-to-back, then all replies read.
			var batch strings.Builder
			for _, q := range resolves {
				batch.WriteString(q)
				batch.WriteByte('\n')
			}
			batch.WriteString("stats\n")
			rd := bufio.NewReader(conn)
			for r := 0; r < rounds; r++ {
				if _, err := io.WriteString(conn, batch.String()); err != nil {
					errs <- fmt.Errorf("conn %d: write: %w", c, err)
					return
				}
				for _, q := range resolves {
					line, err := rd.ReadString('\n')
					if err != nil {
						errs <- fmt.Errorf("conn %d: read: %w", c, err)
						return
					}
					if got := strings.TrimSuffix(line, "\n"); got != want[q] {
						errs <- fmt.Errorf("conn %d round %d: %q -> %q, want %q", c, r, q, got, want[q])
						return
					}
				}
				line, err := rd.ReadString('\n')
				if err != nil {
					errs <- fmt.Errorf("conn %d: stats read: %w", c, err)
					return
				}
				if !strings.HasPrefix(line, "ok routes=3 ") {
					errs <- fmt.Errorf("conn %d: stats reply %q", c, line)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHTTPBulkRoutes drives the POST /routes batch endpoint: one reply
// line per request line, in order, matching the line protocol's resolve
// answers; stats/trace/quit are not commands here, whatever whitespace
// separates them (U+00A0 below).
func TestHTTPBulkRoutes(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.handler())
	defer srv.Close()

	body := "duke honey\ncaip.rutgers.edu pleasant\nnowhere u\n\na b c\nquit\n" +
		"stats\u00a0\nquit\u00a0\n"
	resp, err := http.Post(srv.URL+"/routes", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	want := "ok duke!honey\n" +
		"ok seismo!caip.rutgers.edu!pleasant\n" +
		`err routedb: no route to "nowhere"` + "\n" +
		"err empty request\n" +
		"err want: [from=host] [overlay=spec] dest [user]\n" +
		`err routedb: no route to "quit"` + "\n" +
		`err routedb: no route to "stats"` + "\n" +
		`err routedb: no route to "quit"` + "\n"
	if string(got) != want {
		t.Errorf("POST /routes:\ngot  %q\nwant %q", got, want)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
}

// TestHTTPBulkVantage: from= per body line answers from that vantage —
// the bulk endpoint's pair-resolution form.
func TestHTTPBulkVantage(t *testing.T) {
	dir := t.TempDir()
	mapPath := dir + "/test.map"
	if err := os.WriteFile(mapPath, []byte(testMapSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newMapDaemon(routedb.Options{}, io.Discard)
	if _, err := newMapWatcher(d, "unc", 8, []string{mapPath}, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	body := "ucbvax honey\nfrom=duke ucbvax honey\nfrom=nosuchhost x y\n"
	resp, err := http.Post(srv.URL+"/routes", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimRight(string(got), "\n"), "\n")
	if len(lines) != 3 ||
		lines[0] != "ok duke!research!ucbvax!honey" ||
		lines[1] != "ok research!ucbvax!honey" ||
		!strings.HasPrefix(lines[2], "err vantage nosuchhost:") {
		t.Errorf("bulk vantage replies = %q", lines)
	}
}

// TestHTTPServerTimeouts locks in the satellite: the daemon's server
// must bound header reads and idle keep-alives so one slow client
// cannot pin a goroutine forever.
func TestHTTPServerTimeouts(t *testing.T) {
	path := writeRoutes(t, t.TempDir(), testRoutes)
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv := d.httpServer()
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: a stalled header read pins a goroutine forever")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: an idle keep-alive connection is held forever")
	}
}
