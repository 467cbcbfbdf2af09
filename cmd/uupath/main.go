// Command uupath queries a route database the way a user or delivery
// agent would — the "manual querying by users" integration the paper
// calls the simplest, plus the delivery-agent rewriting modes.
//
// Usage:
//
//	uupath -d routes.db dest [user]          # route to a destination
//	uupath -d routes.rdb dest [user]         # same, compiled database
//	uupath -d routes.db -r [-m mode] addr    # rewrite a relative address
//	uupath -d routes.db -guess addr          # disambiguate mixed syntax
//	uupath -maps a.map,b.map -f from dest    # route from another vantage
//	uupath -server host:port dest [user]     # ask a running routed daemon
//	uupath -server host:port < dests         # bulk: stream stdin, pipelined
//	uupath -server host:port -x 'dead a b' dest   # what-if: route under edits
//
// The -d file's format is auto-detected by its magic bytes: a compiled
// binary database (mkdb -binary, pathalias -o-db) is memory-mapped and
// served with no parsing — the instant-start path — while anything
// else is parsed as the classic linear text file.
//
// With -maps, uupath computes routes in-process from map sources instead
// of loading a precompiled database, and -f picks the vantage host the
// route originates at — the multi-source question ("how does duke reach
// ucbvax?") that a single routes.db, compiled for one LocalHost, cannot
// answer. All query modes (-r, -guess, plain dest) work against the
// computed vantage.
//
// With -server, -x sends every query under a what-if overlay: a
// spec of "dead a b", "cost a b EXPR", and "link a b N" edits
// (semicolon-separated) that the daemon applies to a scratch copy of
// the map before routing — the served tables are untouched. The
// daemon must be running in -map mode.
//
// Examples:
//
//	$ uupath -d routes.db mit-ai honey
//	duke!research!ucbvax!honey@mit-ai
//
//	$ uupath -maps testdata/paper1981.map -f duke ucbvax honey
//	research!ucbvax!honey
//
//	$ uupath -d routes.db -r -m rightmost -local unc a!b!seismo!mcvax!piet
//	seismo!mcvax!piet
//
// Rewrite modes: off (leave the path alone), firsthop (route to the first
// host), rightmost (collapse to the rightmost known host — "can result in
// significant savings; unfortunately, it can backfire").
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"pathalias/internal/core"
	"pathalias/internal/mailer"
	"pathalias/internal/routedb"
	"pathalias/internal/whatif"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uupath", flag.ContinueOnError)
	var (
		dbPath  = fs.String("d", "", "route database file")
		maps    = fs.String("maps", "", "comma-separated map source files: compute routes in-process instead of -d")
		from    = fs.String("f", "", "vantage host routes originate at (requires -maps)")
		server  = fs.String("server", "", "routed line-protocol address: query a running daemon instead of a local database (pipelined)")
		rewrite = fs.Bool("r", false, "rewrite a relative address instead of routing to a destination")
		mode    = fs.String("m", "firsthop", "rewrite mode: off, firsthop, rightmost")
		local   = fs.String("local", "localhost", "local host name for rewriting")
		guess   = fs.String("guess", "", "disambiguate a mixed-syntax address against the database")
		fold    = fs.Bool("i", false, "case-fold queries (for maps computed with pathalias -i)")
		overlay = fs.String("x", "", "what-if overlay spec, e.g. 'dead a b; cost a c DEMAND' (requires -server to a -map daemon)")
	)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func() int {
		fmt.Fprintln(stderr, "usage: uupath -d routes.db [-r [-m mode] [-local host]] dest [user]")
		fmt.Fprintln(stderr, "       uupath -maps file,... -f from [-r [-m mode]] dest [user]")
		fmt.Fprintln(stderr, "       uupath -server host:port [-f from] [-x overlay] [dest [user]]  (no args: stream stdin, pipelined)")
		return 2
	}
	if *server != "" {
		if *dbPath != "" || *maps != "" || *rewrite || *guess != "" {
			return usage()
		}
		// Parse the overlay locally so a typo fails fast with the spec
		// parser's message instead of one "err ..." reply per query, and
		// send the canonical single-token form the line protocol wants.
		overlayTok := ""
		if *overlay != "" {
			sp, err := whatif.ParseSpec(*overlay)
			if err != nil {
				fmt.Fprintf(stderr, "uupath: -x: %v\n", err)
				return 2
			}
			overlayTok = sp.LineToken()
		}
		return runClient(*server, *from, overlayTok, fs.Args(), stdin, stdout, stderr)
	}
	if *overlay != "" {
		fmt.Fprintln(stderr, "uupath: -x requires -server (what-if overlays are evaluated by a -map daemon)")
		return 2
	}
	switch {
	case (*dbPath == "") == (*maps == ""): // exactly one source of routes
		return usage()
	case *maps != "" && *from == "":
		fmt.Fprintln(stderr, "uupath: -maps requires -f <from> (the vantage host)")
		return 2
	case *maps == "" && *from != "":
		fmt.Fprintln(stderr, "uupath: -f requires -maps (a routes.db is compiled for one vantage)")
		return 2
	case fs.NArg() < 1 && *guess == "":
		return usage()
	}

	var db *routedb.DB
	if *maps != "" {
		var err error
		db, err = vantageDB(strings.Split(*maps, ","), *from, *fold)
		if err != nil {
			fmt.Fprintf(stderr, "uupath: %v\n", err)
			return 1
		}
	} else {
		var err error
		db, err = openDB(*dbPath, *fold, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "uupath: %v\n", err)
			return 1
		}
		defer db.Close()
	}

	if *guess != "" {
		rw := &mailer.Rewriter{DB: db, Local: *local}
		a, err := rw.BestGuess(*guess)
		if err != nil {
			fmt.Fprintf(stderr, "uupath: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, a.String())
		return 0
	}

	if *rewrite {
		var m mailer.OptimizeMode
		switch *mode {
		case "off":
			m = mailer.OptimizeOff
		case "firsthop":
			m = mailer.OptimizeFirstHop
		case "rightmost":
			m = mailer.OptimizeRightmost
		default:
			fmt.Fprintf(stderr, "uupath: unknown mode %q\n", *mode)
			return 2
		}
		rw := &mailer.Rewriter{DB: db, Local: *local, Mode: m}
		out, err := rw.Route(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "uupath: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, out)
		return 0
	}

	user := "%s"
	if fs.NArg() > 1 {
		user = fs.Arg(1)
	}
	res, err := db.Resolve(fs.Arg(0), user)
	if err != nil {
		fmt.Fprintf(stderr, "uupath: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, res.Address())
	return 0
}

// openDB opens a route database of either format (routedb.Open). A
// compiled image's own fold-case setting wins over -i, with a note
// when they disagree.
func openDB(path string, fold bool, stderr io.Writer) (*routedb.DB, error) {
	db, err := routedb.Open(path, routedb.Options{FoldCase: fold})
	if err != nil {
		return nil, err
	}
	if got := db.Options().FoldCase; got != fold {
		fmt.Fprintf(stderr, "uupath: note: %s was compiled with FoldCase=%v; the file's setting wins\n", path, got)
	}
	return db, nil
}

// runClient queries a running routed daemon over the line protocol —
// the delivery-agent integration for a shared long-lived database.
// With positional args it sends one query and prints the address. With
// none it streams "dest [user]" lines from stdin to the server
// *pipelined*: requests are written as fast as stdin supplies them
// while replies are read concurrently, so resolving a large batch costs
// about one network round trip instead of one per line. -f prefixes
// every request with from=<host>, -x with overlay=<spec> (both need
// the server in -map mode). Addresses print on stdout in request
// order; "err" replies go to stderr and make the exit status 1.
func runClient(addr, from, overlayTok string, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "uupath: %v\n", err)
		return 1
	}
	defer conn.Close()
	prefix := ""
	if from != "" {
		prefix = "from=" + from + " "
	}
	if overlayTok != "" {
		prefix += "overlay=" + overlayTok + " "
	}

	// Writer side: stream requests without waiting for replies, then
	// half-close so the server answers everything and hangs up.
	var werr error
	go func() {
		defer func() {
			if cw, ok := conn.(interface{ CloseWrite() error }); ok {
				cw.CloseWrite()
			}
		}()
		if len(args) > 0 {
			_, werr = fmt.Fprintf(conn, "%s%s\n", prefix, strings.Join(args, " "))
			return
		}
		sc := bufio.NewScanner(stdin)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			if _, err := fmt.Fprintf(conn, "%s%s\n", prefix, line); err != nil {
				werr = err
				return
			}
		}
		werr = sc.Err()
	}()

	failed := false
	rd := bufio.NewScanner(conn)
	rd.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for rd.Scan() {
		reply := rd.Text()
		switch {
		case strings.HasPrefix(reply, "ok "):
			fmt.Fprintln(stdout, reply[len("ok "):])
		case strings.HasPrefix(reply, "err "):
			fmt.Fprintf(stderr, "uupath: %s\n", reply[len("err "):])
			failed = true
		default:
			fmt.Fprintf(stderr, "uupath: unexpected reply %q\n", reply)
			failed = true
		}
	}
	if err := rd.Err(); err != nil {
		fmt.Fprintf(stderr, "uupath: %v\n", err)
		return 1
	}
	if werr != nil {
		fmt.Fprintf(stderr, "uupath: %v\n", werr)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// vantageDB computes the route database for one vantage of the given
// map sources with the batch pipeline: the routes pathalias -l from
// prints.
func vantageDB(paths []string, from string, fold bool) (*routedb.DB, error) {
	var files []string
	for _, p := range paths {
		if p = strings.TrimSpace(p); p != "" {
			files = append(files, p)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("-maps names no file")
	}
	ins, err := core.ReadInputs(files)
	if err != nil {
		return nil, err
	}
	rep, err := core.Run(core.Config{LocalHost: from, FoldCase: fold}, ins...)
	if err != nil {
		return nil, err
	}
	return routedb.BuildWith(rep.Entries, routedb.Options{FoldCase: fold}), nil
}
