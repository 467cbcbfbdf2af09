// Package mmapio maps files read-only into memory. It backs the
// compiled route database (internal/rdb) and nothing else: an rdb image
// is served straight off its page-cache pages, so a restart answers in
// milliseconds without reading the file, and several routed processes
// serving one image share a single physical copy.
//
// A mapping faults (SIGBUS) if the file is truncated under it, so a
// mapped file must only ever be replaced by rename, never rewritten in
// place. Map sources, which editors do rewrite in place, are read into
// the heap instead (core.ReadInputs).
//
// On platforms without mmap support — or whenever the mapping fails —
// Open falls back to an ordinary read, so callers never need a second
// code path. Close is safe to call exactly once per Open.
package mmapio

import "os"

// File is one opened input: its bytes and the release hook.
type File struct {
	Data   []byte
	mapped bool
}

// Open returns the file's contents, memory-mapped when the platform
// allows, read into memory otherwise. The returned File's Close must be
// called when the bytes are no longer referenced anywhere.
func Open(path string) (*File, error) {
	if f, err := openMmap(path); err == nil {
		return f, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &File{Data: data}, nil
}

// Close releases the mapping (a no-op for the fallback path).
func (f *File) Close() error {
	if f == nil || !f.mapped {
		return nil
	}
	f.mapped = false
	return munmap(f.Data)
}
