// Command mkdb converts pathalias's linear output into a normalized route
// database file — "a separate program may be used to convert this file
// into a format appropriate for rapid database retrieval" (the paper,
// OUTPUT section).
//
// Usage:
//
//	pathalias -l here map | mkdb -o routes.db
//	mkdb routes.txt -o routes.db
//	mkdb -binary routes.txt -o routes.rdb
//	mkdb routes.rdb -o routes.txt
//
// By default the output is sorted, deduplicated (cheapest route per
// host) text, always in the three-field "cost\thost\troute" form, ready
// for uupath. With -binary, mkdb compiles the same database into the
// mmap-served binary format (internal/rdb) that routed and uupath open
// with no parsing — the historical `pathalias | makedb` dbm step. A
// file argument that is already a compiled database is detected by its
// magic bytes and loaded either way, so mkdb converts in both
// directions.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pathalias/internal/atomicfile"
	"pathalias/internal/routedb"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mkdb", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default: stdout)")
	binary := fs.Bool("binary", false, "emit the compiled binary database (rdb) instead of text")
	fold := fs.Bool("i", false, "case-fold host names (for maps computed with pathalias -i)")
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var db *routedb.DB
	var err error
	if fs.NArg() > 0 {
		db, err = routedb.Open(fs.Arg(0), routedb.Options{FoldCase: *fold})
	} else {
		db, err = routedb.LoadWith(stdin, routedb.Options{FoldCase: *fold})
	}
	if err != nil {
		fmt.Fprintf(stderr, "mkdb: %v\n", err)
		return 1
	}
	defer db.Close()
	// An image read back (its header's fold option wins) is the audit
	// point: run the deep checks the serving open path defers.
	if err := db.DeepVerify(); err != nil {
		fmt.Fprintf(stderr, "mkdb: %v\n", err)
		return 1
	}

	// Write the output, propagating every write AND close error: a full
	// disk often surfaces only when buffers flush at close, and a
	// swallowed error there means a silently truncated database. A file
	// target is replaced atomically (temp file + rename), so a routed
	// watcher serving the target never observes a half-written
	// database, and a failed write leaves the previous file intact.
	if *out == "" {
		if err := writeOut(db, stdout, *binary); err != nil {
			fmt.Fprintf(stderr, "mkdb: %v\n", err)
			return 1
		}
	} else if err := writeFile(db, *out, *binary); err != nil {
		fmt.Fprintf(stderr, "mkdb: %v\n", err)
		return 1
	}
	format := "text"
	if *binary {
		format = "binary"
	}
	fmt.Fprintf(stderr, "mkdb: %d routes (%s)\n", db.Len(), format)
	return 0
}

// writeOut emits the database in the requested format.
func writeOut(db *routedb.DB, w io.Writer, binary bool) error {
	if binary {
		_, err := db.WriteBinary(w)
		return err
	}
	_, err := db.WriteTo(w)
	return err
}

// writeFile emits the database to path atomically and durably (fsynced
// before the rename; see internal/atomicfile). On any failure the temp
// file is removed and the previous path contents survive untouched.
func writeFile(db *routedb.DB, path string, binary bool) error {
	return atomicfile.Publish(path, func(w io.Writer) error {
		return writeOut(db, w, binary)
	})
}
