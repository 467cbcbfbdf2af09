// Command pathalias computes electronic mail routes from network
// connectivity maps, reproducing the classic tool of Honeyman & Bellovin
// (USENIX 1986).
//
// Usage:
//
//	pathalias [-c] [-D] [-g] [-i] [-B] [-f] [-l localname] [-s host,host] [-v] [file ...]
//
// Input files (or standard input) describe the connection graph in the
// pathalias map language; output is one route per line, as a printf
// format string with %s marking the user name position:
//
//	$ pathalias -l unc -c paper.map
//	0	unc	%s
//	500	duke	duke!%s
//	...
//
// Flags:
//
//	-c    print costs and list routes cheapest first (the paper's
//	      example format); -o-db writes the same image either way
//	-D    print top-level domain routes only
//	-g    second-best route selection (the paper's experimental feature)
//	-i    ignore case in host names (folds input to lower case)
//	-l    local host name (default "localhost")
//	-s    comma-separated hosts to avoid when possible
//	-v    verbose statistics on standard error
//	-B    disable back-link invention for unreachable hosts
//	-f    report first-hop cost instead of full path cost
//	-t    trace one host's links, attributes, and path on standard error
//	-o    write routes to file instead of stdout, atomically and durably
//	      (see -o-db): a reader of the file never sees a partial one
//
// Compiled output:
//
//	-o-db file  also compile the routes into the binary route database
//	            (rdb) at file, written atomically and durably — the
//	            mmap-served format routed -db and uupath open with no
//	            parsing. Combined with -watch, it is republished, like
//	            -o, only when the routes change (a comment edit or a
//	            restart over unchanged sources writes neither file)
//
// Continuous regeneration:
//
//	-watch 2s  stay resident and regenerate when a map file changes
//	           (-o is required with -watch)
//
// With -watch, pathalias keeps the incremental re-map engine warm: each
// regeneration re-scans only changed files and re-maps only the
// affected region, so the output file tracks edits in milliseconds.
//
// The flags build one pipeline configuration (core.Config): a batch run
// hands it to core.Run, -watch to the incremental engine, and both write
// through the same route-file and image writers, so -watch's files equal
// a batch run's byte for byte.
//
// Profiling (see DESIGN.md "Profiling the pipeline"):
//
//	-cpuprofile f  write a CPU profile of the run to f
//	-memprofile f  write a heap profile (after a final GC) to f
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"pathalias/internal/atomicfile"
	"pathalias/internal/core"
	"pathalias/internal/mapper"
	"pathalias/internal/printer"
	"pathalias/internal/routedb"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pathalias", flag.ContinueOnError)
	var (
		costs       = fs.Bool("c", false, "print costs and list routes cheapest first")
		domainsOnly = fs.Bool("D", false, "print domain routes only")
		secondBest  = fs.Bool("g", false, "second-best (domain-aware) route selection")
		ignoreCase  = fs.Bool("i", false, "ignore case in host names")
		local       = fs.String("l", "localhost", "local host name")
		avoid       = fs.String("s", "", "comma-separated hosts to avoid")
		verbose     = fs.Bool("v", false, "verbose statistics on stderr")
		noBack      = fs.Bool("B", false, "disable back links")
		firstHop    = fs.Bool("f", false, "report first-hop cost instead of path cost")
		trace       = fs.String("t", "", "trace a host's links and mapping on stderr")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to `file`")
		memprofile  = fs.String("memprofile", "", "write a heap profile to `file`")
		watchEvery  = fs.Duration("watch", 0, "stay resident and regenerate when a map file changes")
		logLevel    = fs.String("log-level", "info", "log verbosity in -watch mode: debug, info, warn or error")
		outPath     = fs.String("o", "", "output `file` instead of stdout (required with -watch)")
		outDB       = fs.String("o-db", "", "also compile the routes into a binary route database at `file` (rdb, for routed -db / uupath)")
	)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "pathalias: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "pathalias: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "pathalias: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "pathalias: %v\n", err)
			}
		}()
	}

	mopts := mapper.DefaultOptions()
	mopts.SecondBest = *secondBest
	mopts.BackLinks = !*noBack
	cfg := core.Config{
		LocalHost: *local,
		Mapper:    &mopts,
		FoldCase:  *ignoreCase,
		Printer: printer.Options{
			DomainsOnly:  *domainsOnly,
			FirstHopCost: *firstHop,
		},
	}
	if *avoid != "" {
		cfg.Avoid = strings.Split(*avoid, ",")
	}

	if *watchEvery > 0 {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
			fmt.Fprintf(stderr, "pathalias: bad -log-level %q (want debug, info, warn or error)\n", *logLevel)
			return 2
		}
		return runWatch(fs.Args(), cfg, watchConfig{
			interval: *watchEvery,
			outPath:  *outPath,
			outDB:    *outDB,
			costs:    *costs,
			logLevel: lvl,
		}, stderr)
	}

	paths := fs.Args()
	if len(paths) == 0 {
		paths = []string{"-"} // no files: the map is standard input
	}
	inputs, err := core.ReadInputs(paths)
	if err != nil {
		fmt.Fprintf(stderr, "pathalias: %v\n", err)
		return 1
	}
	rep, err := core.Run(cfg, inputs...)
	if rep != nil {
		for _, w := range rep.Warnings {
			fmt.Fprintf(stderr, "pathalias: %s\n", w)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "pathalias: %v\n", err)
		return 1
	}

	if *outPath == "" {
		err = routeText(*costs, rep.Entries)(stdout)
	} else {
		// Atomically and durably, like -o-db: a routed -d watcher of the
		// file never loads a partial one.
		err = atomicfile.Publish(*outPath, routeText(*costs, rep.Entries))
	}
	if err != nil {
		fmt.Fprintf(stderr, "pathalias: writing output: %v\n", err)
		return 1
	}
	// The image is published durably and atomically too (see
	// internal/atomicfile): a routed -db watcher of the target never
	// observes a partial file, and a crash right after the rename cannot
	// leave a torn new file behind.
	if *outDB != "" {
		if err := atomicfile.Publish(*outDB, routeImage(cfg, rep.Entries)); err != nil {
			fmt.Fprintf(stderr, "pathalias: writing %s: %v\n", *outDB, err)
			return 1
		}
	}
	for _, name := range rep.Unreachable {
		fmt.Fprintf(stderr, "pathalias: %s: no route\n", name)
	}
	if *trace != "" {
		traceHost(stderr, rep, *trace)
	}
	if *verbose {
		core.WriteReportStats(stderr, rep)
	}
	return 0
}

// routeText writes name-ordered routes as the classic linear route
// file, both for a batch run and for every -watch regeneration; -c
// (costs) lists them cheapest first, with the cost column.
func routeText(costs bool, entries []printer.Entry) func(io.Writer) error {
	return func(w io.Writer) error {
		if costs {
			entries = printer.ByCost(entries)
		}
		_, err := routedb.WriteText(w, entries, costs)
		return err
	}
}

// routeImage compiles name-ordered routes, indexed in place, into the
// mmap-served binary database format (-o-db), recording -i in its
// header, both for a batch run and for every -watch regeneration.
func routeImage(cfg core.Config, entries []printer.Entry) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := routedb.BuildWith(entries, routedb.Options{FoldCase: cfg.FoldCase}).WriteBinary(w)
		return err
	}
}
