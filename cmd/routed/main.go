// Command routed serves a pathalias route database to delivery agents —
// the serving side of the paper's "format appropriate for rapid database
// retrieval". Where mkdb converts and uupath answers one query, routed
// keeps the database resident, answers queries over a line-oriented
// protocol (TCP or stdin) and HTTP, and hot-swaps the in-memory index
// when the route file changes, without dropping in-flight lookups.
//
// Usage:
//
//	routed -d routes.db [-tcp addr] [-http addr] [-watch 2s] [-i]
//	routed -db routes.rdb [-tcp addr] [-http addr] [-watch 2s]
//	routed -d routes.db -stdin
//	routed -map -l localhost [-o-db routes.rdb] [-vantages 64] [-tcp addr] [-http addr] [-watch 2s] [-i] file...
//
// With -d, routed serves a precompiled route database of either
// format, text or compiled image, told apart by the file's first bytes
// on every reload, and reloads it when the file changes. A compiled
// database (`mkdb -binary` / `pathalias -o-db`) is memory-mapped and
// served with no parsing and no per-entry allocation, so a 200k-host
// daemon answers its first lookup tens of milliseconds after exec
// instead of seconds — and several routed processes mapping the same
// file share one physical copy in the page cache. -db serves only such
// an image and refuses a text file. Replacing the file (atomically,
// via rename) hot-swaps the mapping under live traffic. With -map,
// routed owns the whole pipeline: it computes routes from the map
// sources in-process (the paper's three phases), watches the sources,
// and on every edit re-scans only the changed files and re-maps only
// the affected region of the network through the incremental re-map
// engine — the serving index hot-swaps in milliseconds, without a
// pathalias|mkdb round trip.
//
// With -map -o-db file, routed also keeps a compiled image of the
// routes continuously published at file: every re-map that changes the
// routes atomically and durably replaces it (no-op edits publish
// nothing), so a crash at any instant leaves a valid image — and on
// restart routed warm-starts by mmap-serving that image immediately
// while the first map computation runs in the background, swapping the
// live engine's database in when it lands. Until then, queries needing
// the live graph (from= vantages, what-if) answer with a clear
// "warming up" error instead of blocking.
//
// In -map mode routed is multi-source: a from=<host> parameter on the
// line protocol or HTTP /route answers the query from that host's
// vantage instead of -l's. Vantage machines share the engine's fragment
// cache, graph, and snapshot; the first query for a new vantage spins
// one up lazily (bounded by -vantages, LRU-evicted), and a source edit
// re-maps and hot-swaps every resident vantage's store.
//
// Examples:
//
//	$ routed -d routes.db -tcp :7411 -http :7412 &
//	$ printf 'caip.rutgers.edu pleasant\n' | nc localhost 7411
//	ok seismo!caip.rutgers.edu!pleasant
//	$ curl 'http://localhost:7412/route?dest=caip.rutgers.edu&user=pleasant'
//	seismo!caip.rutgers.edu!pleasant
//
//	$ routed -map -l unc -tcp :7411 core.map overlay.map &
//	$ printf 'from=duke ucbvax honey\n' | nc localhost 7411
//	ok research!ucbvax!honey
//	$ vi core.map   # save: all vantage stores update in milliseconds
//
// See README.md in this directory for the protocol.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pathalias/internal/routedb"
)

// version is the build identity shown in /stats, /metrics
// (routed_build_info) and the stats line. Release builds override it:
//
//	go build -ldflags "-X main.version=1.4.0" ./cmd/routed
var version = "dev"

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("routed", flag.ContinueOnError)
	var (
		dbPath   = fs.String("d", "", "route database file, text or compiled image (precompiled mode)")
		binPath  = fs.String("db", "", "compiled binary route database (rdb) only: mmap-served, instant start")
		mapMode  = fs.Bool("map", false, "compute routes from map source files (args) with the incremental engine")
		local    = fs.String("l", "", "local host name (required with -map)")
		tcpAddr  = fs.String("tcp", "", "serve the line protocol on this TCP address (e.g. :7411)")
		httpAddr = fs.String("http", "", "serve HTTP on this address (e.g. :7412)")
		useStdin = fs.Bool("stdin", false, "serve the line protocol on stdin/stdout and exit at EOF")
		watch    = fs.Duration("watch", 2*time.Second, "hot-reload on change: file events plus this fallback poll interval (0 disables)")
		fold     = fs.Bool("i", false, "case-fold queries (for maps computed with pathalias -i)")
		vantages = fs.Int("vantages", 64, "max resident vantage machines for from= queries (-map mode)")
		odb      = fs.String("o-db", "", "continuously publish the compiled route database to `file` and warm-start from it (-map mode)")
		logLevel = fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
		slow     = fs.Duration("slow", 250*time.Millisecond, "log queries slower than this threshold (0 disables)")
		pprofOn  = fs.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); keep it private")
	)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(stderr, "routed: bad -log-level %q (want debug, info, warn or error)\n", *logLevel)
		return 2
	}
	usage := func() int {
		fmt.Fprintln(stderr, "usage: routed -d routes.db | -db routes.rdb [-tcp addr] [-http addr] [-watch 2s] [-i] | -stdin")
		fmt.Fprintln(stderr, "       routed -map -l localhost [-o-db routes.rdb] [-vantages 64] [-tcp addr] [-http addr] [-watch 2s] [-i] file...")
		return 2
	}
	sources := 0
	for _, set := range []bool{*dbPath != "", *binPath != "", *mapMode} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return usage()
	}
	if *mapMode && (*local == "" || len(fs.Args()) == 0) {
		return usage()
	}
	if *odb != "" && !*mapMode {
		fmt.Fprintln(stderr, "routed: -o-db requires -map mode")
		return usage()
	}
	if !*useStdin && *tcpAddr == "" && *httpAddr == "" {
		return usage()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var d *daemon
	if *mapMode {
		d = newMapDaemon(routedb.Options{FoldCase: *fold}, stderr)
		// No background image audit outlives run: it reads the image file.
		defer d.audits.Wait()
		configureTelemetry(d, lvl, *slow, *odb)
		w, err := newMapWatcher(d, *local, *vantages, fs.Args(), *odb)
		if err != nil {
			fmt.Fprintf(stderr, "routed: %v\n", err)
			return 1
		}
		// Join a warm start's background computation before returning:
		// it logs to stderr and publishes to -o-db, neither of which
		// should outlive run.
		defer func() { <-w.ready }()
		if *watch > 0 {
			go w.watch(ctx, *watch)
		}
	} else {
		path, binary := *dbPath, false
		if *binPath != "" {
			path, binary = *binPath, true
		}
		var err error
		d, err = newDaemon(path, binary, routedb.Options{FoldCase: *fold}, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "routed: %v\n", err)
			return 1
		}
		defer d.audits.Wait()
		configureTelemetry(d, lvl, *slow, *binPath)
		if *watch > 0 {
			go d.watch(ctx, *watch)
		}
	}

	if *pprofOn != "" {
		ln, err := net.Listen("tcp", *pprofOn)
		if err != nil {
			fmt.Fprintf(stderr, "routed: pprof: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "routed: pprof on %s\n", ln.Addr())
		// A dedicated mux so the profiling surface never leaks onto the
		// serving address: pprof exposes heap contents and must stay on
		// the side listener the operator chose.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() { _ = (&http.Server{Handler: pm}).Serve(ln) }()
	}

	if *useStdin {
		if err := d.serveConn(stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "routed: %v\n", err)
			return 1
		}
		return 0
	}

	done := make(chan struct{})
	serving := 0
	if *tcpAddr != "" {
		ln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			fmt.Fprintf(stderr, "routed: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "routed: line protocol on %s\n", ln.Addr())
		serving++
		go func() { d.serveTCP(ctx, ln); done <- struct{}{} }()
	}
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintf(stderr, "routed: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "routed: http on %s\n", ln.Addr())
		serving++
		go func() { d.serveHTTP(ctx, ln); done <- struct{}{} }()
	}
	for i := 0; i < serving; i++ {
		<-done
	}
	return 0
}

// configureTelemetry applies the flags the daemon constructors cannot
// see: build identity (version is linker-set), the image path served or
// published, the slow-query threshold, and the log level.
func configureTelemetry(d *daemon, lvl slog.Level, slow time.Duration, image string) {
	d.version = version
	d.imagePath = image
	d.slowThresh = slow
	d.logLvl.Set(lvl)
	d.metrics.registerBuildInfo(version, image)
}
