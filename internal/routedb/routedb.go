// Package routedb turns pathalias output into a queryable route database.
//
// The paper: "output from pathalias is a simple linear file, in the UNIX
// tradition. If desired, a separate program may be used to convert this
// file into a format appropriate for rapid database retrieval." This
// package is that program's library, and the one place that knows the
// route-file formats: it writes and reads the linear text file
// (WriteText, LoadWith), compiles and maps the binary image (binary.go),
// and tells the two apart by their first bytes (IsBinaryFile, Open).
// It serves lookups from an immutable resolver index (package
// resolver): a hash index for exact matches and a reversed-label
// suffix trie for the paper's domain resolution procedure — "a search for
// .rutgers.edu, followed by a search for .edu, produces seismo!%s, the
// route to the .edu gateway" — in a single trie descent.
//
// A DB is immutable and safe for concurrent readers. Store adds the
// serving-side lifecycle: an atomically swappable current database, so a
// rebuilt map can be hot-swapped under live traffic.
package routedb

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"

	"pathalias/internal/cost"
	"pathalias/internal/rdb"
	"pathalias/internal/resolver"
)

// Entry is one route: a destination name and the printf-style format
// string that reaches it.
type Entry = resolver.Entry

// Resolution explains how a destination was resolved.
type Resolution = resolver.Resolution

// Options configure database construction; see resolver.Options.
type Options = resolver.Options

// Stats is a snapshot of a database's query counters.
type Stats = resolver.Stats

// DB is an immutable route database: any number of goroutines may call
// its query methods concurrently with no locking. It serves either
// from an in-memory index (BuildWith, Load) or directly off a compiled
// file's mapped pages (OpenBinary; see binary.go).
type DB struct {
	r *resolver.Resolver

	// Set only for binary (mmap-served) databases.
	rdr     *rdb.Reader
	cleanup runtime.Cleanup
}

// BuildWith indexes printer output entries (FoldCase for maps computed
// under -i). It never writes entries: canonical ones — every pipeline
// producer's output — become the database's own storage, so the caller
// must not write them afterwards; see resolver.New.
func BuildWith(entries []Entry, opts Options) *DB {
	return &DB{r: resolver.New(entries, opts)}
}

// With indexes entries under opts like BuildWith, reusing db's
// exact-match table and suffix trie when db is an in-memory database
// built under opts and entries carry exactly its host names in its
// order (see resolver.Resolver.With): a route edit that moved no host
// name then costs one comparison pass, not an index build. The result
// answers, and compiles to an image, exactly as BuildWith's would.
func (db *DB) With(entries []Entry, opts Options) *DB {
	return &DB{r: db.r.With(entries, opts)}
}

// Load reads a linear route file: either "host\troute" or
// "cost\thost\troute" lines (the two pathalias output formats). Blank
// lines and #-comments are ignored.
func Load(r io.Reader) (*DB, error) {
	return LoadWith(r, Options{})
}

// LoadWith reads a linear route file with explicit options.
func LoadWith(r io.Reader, opts Options) (*DB, error) {
	var es []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimRight(sc.Text(), "\r\n")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		var e Entry
		switch len(fields) {
		case 2:
			e = Entry{Host: fields[0], Route: fields[1]}
		case 3:
			c, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("routedb: line %d: bad cost %q", lineno, fields[0])
			}
			e = Entry{Host: fields[1], Route: fields[2], Cost: cost.Cost(c)}
		default:
			return nil, fmt.Errorf("routedb: line %d: want 2 or 3 tab-separated fields, got %d", lineno, len(fields))
		}
		if e.Host == "" {
			return nil, fmt.Errorf("routedb: line %d: empty host", lineno)
		}
		if !strings.Contains(e.Route, "%s") {
			return nil, fmt.Errorf("routedb: line %d: route %q has no %%s marker", lineno, e.Route)
		}
		es = append(es, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("routedb: %w", err)
	}
	return BuildWith(es, opts), nil
}

// WriteText writes entries as a linear route file, one route per line:
// "host\troute", or with costs "cost\thost\troute" — the two formats
// pathalias prints and LoadWith reads. It returns the bytes written.
func WriteText(w io.Writer, entries []Entry, costs bool) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	for _, e := range entries {
		b := bw.AvailableBuffer()
		if costs {
			b = strconv.AppendInt(b, int64(e.Cost), 10)
			b = append(b, '\t')
		}
		b = append(b, e.Host...)
		b = append(b, '\t')
		b = append(b, e.Route...)
		b = append(b, '\n')
		n, err := bw.Write(b)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// Open opens a route file of either format, told apart by its first
// bytes (IsBinaryFile): a compiled image is served by OpenBinary, and
// the options recorded in its header win over opts; anything else is
// read as the linear text file under opts (LoadWith).
func Open(path string, opts Options) (*DB, error) {
	image, err := IsBinaryFile(path)
	if err != nil {
		return nil, err
	}
	if image {
		return OpenBinary(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadWith(f, opts)
}

// IsBinaryFile sniffs path's first bytes for the compiled-database
// magic (rdb.IsMagic), so an empty file is text and a cut image is an
// image. It is the one place the text-or-image choice is made: Open
// and a daemon reloading a route file of either format both ask it.
func IsBinaryFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var buf [8]byte
	n, err := io.ReadFull(f, buf[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return false, fmt.Errorf("routedb: %w", err)
	}
	return rdb.IsMagic(buf[:n]), nil
}

// Every query method ends with runtime.KeepAlive(db): a binary DB's
// munmap is a GC cleanup keyed on the *DB, and without the keep-alive
// the compiler may retire db after loading db.r while the resolver is
// still probing the mapped pages — the use-after-unmap hazard the
// runtime.AddCleanup documentation's mmap example warns about. For
// in-memory databases the keep-alive compiles to nothing.

// Len returns the number of routes.
func (db *DB) Len() int {
	n := db.r.Len()
	runtime.KeepAlive(db)
	return n
}

// Entries returns the sorted entries; callers must not modify the
// slice. (For a binary database the entries are materialized copies,
// safe to use after the mapping is gone.)
func (db *DB) Entries() []Entry {
	es := db.r.Entries()
	runtime.KeepAlive(db)
	return es
}

// Lookup finds the route for an exact name.
func (db *DB) Lookup(host string) (Entry, bool) {
	e, ok := db.r.Lookup(host)
	runtime.KeepAlive(db)
	return e, ok
}

// Resolve routes user mail to dest: exact match first, then the domain
// suffix search. With a suffix match the argument becomes "dest!user",
// a route relative to the domain gateway.
func (db *DB) Resolve(dest, user string) (Resolution, error) {
	res, err := db.r.Resolve(dest, user)
	runtime.KeepAlive(db)
	return res, err
}

// Scratch holds the per-caller reusable buffers AppendResolve needs;
// see resolver.Scratch. Keep one per connection or goroutine.
type Scratch = resolver.Scratch

// AppendResolve is the allocation-free Resolve: it appends the finished
// address for (dest, user) to dst and reports whether a route was
// found, with dst returned unchanged on a miss. The appended bytes are
// owned by dst — for a binary database they are copied off the mapped
// pages before this returns — and the answer is byte-identical to
// Resolve().Address() for every query. Counters are updated exactly as
// by Resolve.
func (db *DB) AppendResolve(dst []byte, dest, user []byte, s *Scratch) ([]byte, bool) {
	out, ok := db.r.AppendResolve(dst, dest, user, s)
	runtime.KeepAlive(db)
	return out, ok
}

// Stats returns a snapshot of this database's query counters.
func (db *DB) Stats() Stats {
	s := db.r.Stats()
	runtime.KeepAlive(db)
	return s
}

// WriteTo emits the database as a linear route file with costs.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	return WriteText(w, db.Entries(), true)
}

// Store is an atomically swappable current database: the copy-on-write
// serving cell a long-lived process keeps while map recomputations happen
// in the background. Readers call the query methods (or take a DB
// snapshot) with no locking; a writer builds a complete replacement DB
// and Swaps it in. Both sides are safe from any number of goroutines.
type Store struct {
	cur atomic.Pointer[DB]
}

// emptyDB is what a zero-value or nil-seeded Store serves.
var emptyDB = BuildWith(nil, Options{})

// NewStore returns a store serving db (an empty database if db is nil).
func NewStore(db *DB) *Store {
	s := &Store{}
	if db == nil {
		db = emptyDB
	}
	s.cur.Store(db)
	return s
}

// DB returns the current database snapshot. The snapshot is immutable:
// a reader that needs a consistent view across several queries should
// take one snapshot and use it for all of them.
func (s *Store) DB() *DB {
	if db := s.cur.Load(); db != nil {
		return db
	}
	return emptyDB
}

// Swap atomically replaces the current database and returns the previous
// one. In-flight readers holding the old snapshot are unaffected.
func (s *Store) Swap(db *DB) (old *DB) {
	if db == nil {
		db = emptyDB
	}
	if old = s.cur.Swap(db); old == nil {
		old = emptyDB
	}
	return old
}

// CompareAndSwap replaces the current database with new only if it is
// still old, reporting whether the swap happened. This is the demotion
// primitive for background audits: a verifier that finds a fault in the
// database it audited rolls the store back to the predecessor — unless
// a newer swap already superseded the faulty one, in which case the
// rollback must not clobber it. nil arguments mean the empty database,
// matching Swap.
func (s *Store) CompareAndSwap(old, new *DB) bool {
	if old == nil {
		old = emptyDB
	}
	if new == nil {
		new = emptyDB
	}
	return s.cur.CompareAndSwap(old, new)
}

// Len returns the current database's route count.
func (s *Store) Len() int { return s.DB().Len() }

// Lookup finds an exact route in the current database.
func (s *Store) Lookup(host string) (Entry, bool) { return s.DB().Lookup(host) }

// Resolve resolves against the current database.
func (s *Store) Resolve(dest, user string) (Resolution, error) {
	return s.DB().Resolve(dest, user)
}

// AppendResolve resolves against the current database, appending the
// finished address to dst; see DB.AppendResolve.
func (s *Store) AppendResolve(dst []byte, dest, user []byte, sc *Scratch) ([]byte, bool) {
	return s.DB().AppendResolve(dst, dest, user, sc)
}

// Stats returns the current database's query counters. Counters are
// per-DB: a Swap starts them over with the new database.
func (s *Store) Stats() Stats { return s.DB().Stats() }
