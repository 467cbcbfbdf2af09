// Package fswatch tells watch loops when a fixed set of files may have
// changed. Watch is the one change detector every watcher here uses
// (routed -d/-db/-map, pathalias -watch): it owns the (mtime, size)
// comparison and the settle window, and wakes on kernel file events
// where the platform has them, on a poll ticker everywhere.
//
// Watch only says "maybe": the caller decides whether the bytes really
// changed, by what it already keeps (a content hash or checksum, or the
// remap engine's last-scanned sources). New and Kicks are the
// event layer underneath — a kick is a hint that collapses any
// plausibly relevant activity into a single buffered tick. The watcher
// watches the files' parent directories, so it survives the
// rename-replace idiom editors and atomic writers use. On platforms
// without a kernel facility (or with the nofsevents build tag) New
// returns ErrUnsupported and Watch polls alone.
package fswatch

import (
	"context"
	"errors"
	"os"
	"time"
)

// ErrUnsupported means this build has no kernel file-event facility;
// the caller should poll.
var ErrUnsupported = errors.New("fswatch: no file-event support in this build")

// Watcher owns one kernel watch over the parent directories of the
// paths it was created for.
type Watcher struct {
	kicks chan struct{}
	close func() error
}

// Kicks returns the notification channel: one buffered tick per burst
// of file activity. The channel is never closed; select against it
// alongside a poll ticker.
func (w *Watcher) Kicks() <-chan struct{} { return w.kicks }

// Close releases the kernel watch and stops the reader goroutine.
func (w *Watcher) Close() error { return w.close() }

// New starts watching the given files (via their parent directories).
// It returns ErrUnsupported when the platform has no event facility.
func New(paths []string) (*Watcher, error) { return newPlatform(paths) }

// settle is how long after a file's mtime Watch keeps calling fn on
// every wake-up even though (mtime, size) look unchanged: a rewrite
// within the same timestamp tick leaves both equal on coarse-granularity
// filesystems, so an unchanged pair is trusted only once the file has
// been quiet for longer than any plausible granularity.
const settle = 3 * time.Second

// stat is one file's observed signature; the zero value means "never
// seen" (or vanished), which differs from every real file.
type stat struct {
	mtime time.Time
	size  int64
}

// Watch calls fn whenever any of paths may have changed, until ctx is
// done. It wakes on kernel file events where available and every
// interval (which must be positive) regardless. On each wake-up it
// stats every path and calls fn if any path's (mtime, size) differs
// from the last wake-up's, a path cannot be stat'ed, or a path's mtime
// is within the settle window. The stats are taken before fn runs, so
// an edit that lands while fn reads the files is seen next time.
//
// Watch starts knowing nothing, so it calls fn once at the start: an
// edit between the caller's initial load and the watch is never lost.
// fn runs on Watch's goroutine and should deduplicate by content (a
// kick or a settle-window wake-up is not proof the bytes changed).
func Watch(ctx context.Context, paths []string, interval time.Duration, fn func()) {
	t := time.NewTicker(interval)
	defer t.Stop()
	var kicks <-chan struct{} // nil without event support: never ready
	if w, err := New(paths); err == nil {
		defer w.Close()
		kicks = w.Kicks()
	}
	seen := make([]stat, len(paths))
	for {
		if restat(paths, seen) {
			fn()
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		case <-kicks:
		}
	}
}

// restat refreshes seen from the file system and reports whether any
// file may have changed since the previous call.
func restat(paths []string, seen []stat) bool {
	maybe := false
	now := time.Now()
	for i, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			seen[i] = stat{} // vanished or unreadable: let fn surface it
			maybe = true
			continue
		}
		cur := stat{mtime: fi.ModTime(), size: fi.Size()}
		if !cur.mtime.Equal(seen[i].mtime) || cur.size != seen[i].size || now.Sub(cur.mtime) <= settle {
			maybe = true
		}
		seen[i] = cur
	}
	return maybe
}
