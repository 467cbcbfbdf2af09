package routedb

// The compiled route store integration: a DB can be written out as —
// and served straight from — the binary rdb format (internal/rdb), the
// paper's "format appropriate for rapid database retrieval" taken to
// its conclusion. Where Load parses and indexes the linear text file
// before the first lookup can be answered, OpenBinary memory-maps an
// already-indexed file and serves lookups off the mapped pages: cold
// start is a checksum-and-validate pass, the page cache is shared
// across processes, and nothing is allocated per entry.

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"pathalias/internal/rdb"
	"pathalias/internal/resolver"
)

// WriteBinary compiles the database into the binary rdb image and
// writes it to w. The output is deterministic and carries the
// database's options (FoldCase) in its header, so OpenBinary
// reconstructs an equivalent database with no flags to remember.
func (db *DB) WriteBinary(w io.Writer) (int64, error) {
	img, err := db.MarshalBinary()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(img)
	return int64(n), err
}

// MarshalBinary returns the image WriteBinary writes. The database's
// own index is laid out as it is (rdb.CompileResolver), so this costs
// one pass over the routes, not a second index build.
func (db *DB) MarshalBinary() ([]byte, error) {
	img, err := rdb.CompileResolver(db.r)
	runtime.KeepAlive(db)
	return img, err
}

// OpenBinary opens a compiled route database file, memory-mapped where
// the platform allows. The file is checksummed and structurally
// validated before any lookup is served; options (FoldCase) come from
// the file header. The mapping is released when the returned DB
// becomes unreachable (or on an explicit Close), so a Store can swap
// binary databases like any other and let the garbage collector
// retire old mappings once in-flight readers drain.
func OpenBinary(path string) (*DB, error) {
	r, err := rdb.Open(path)
	if err != nil {
		return nil, err
	}
	return wrapReader(r), nil
}

// OpenBinaryBytes serves a compiled database from an in-memory image
// (validated like OpenBinary); data must stay valid while the DB is in
// use.
func OpenBinaryBytes(data []byte) (*DB, error) {
	r, err := rdb.OpenBytes(data)
	if err != nil {
		return nil, err
	}
	return wrapReader(r), nil
}

func wrapReader(r *rdb.Reader) *DB {
	db := &DB{r: resolver.NewBacked(r, r.Options()), rdr: r}
	// Lookup results copy out of the mapping, and every query method
	// pins the DB with runtime.KeepAlive until it is done touching
	// mapped pages — so once the DB is unreachable nothing can touch
	// them again, unmapping from the cleanup is sound, and Close stays
	// optional.
	db.cleanup = runtime.AddCleanup(db, func(rd *rdb.Reader) { rd.Close() }, r)
	return db
}

// Close releases a binary database's file mapping early instead of
// waiting for the garbage collector. It must not be called while
// queries are in flight; entries and resolutions already returned
// remain valid. Close on a text-built DB is a no-op. Idempotent.
func (db *DB) Close() error {
	if db.rdr == nil {
		return nil
	}
	db.cleanup.Stop()
	return db.rdr.Close()
}

// DeepVerify runs the audit-grade checks a binary database's open
// path defers for cold-start speed — today, the proof that every
// entry is reachable through its own hash probe sequence (see
// rdb.Reader.VerifyReachable). A no-op for text-built databases.
// mkdb runs this when converting a compiled database, so hidden
// entries cannot silently survive a round trip.
func (db *DB) DeepVerify() error {
	if db.rdr == nil {
		return nil
	}
	err := db.rdr.VerifyReachable()
	runtime.KeepAlive(db)
	return err
}

// Binary reports whether the database serves from a compiled file
// image and, if so, its integrity checksum (a content fingerprint).
func (db *DB) Binary() (checksum uint32, ok bool) {
	if db.rdr == nil {
		return 0, false
	}
	return db.rdr.Checksum(), true
}

// Options returns the options the database was built with (for a
// binary database, the ones recorded in the file header).
func (db *DB) Options() Options { return db.r.Options() }

// IsBinaryFile sniffs path's first bytes for the compiled-database
// magic — how callers taking "a route database file" decide between
// Load and OpenBinary without a flag.
func IsBinaryFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var buf [8]byte
	n, err := io.ReadFull(f, buf[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return false, nil // too short to be binary
	}
	if err != nil {
		return false, fmt.Errorf("routedb: %w", err)
	}
	return rdb.IsMagic(buf[:n]), nil
}

// IsBinaryData sniffs an in-memory image for the compiled-database
// magic.
func IsBinaryData(data []byte) bool { return rdb.IsMagic(data) }
