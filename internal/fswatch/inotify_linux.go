//go:build linux && !nofsevents

package fswatch

// inotify backend, raw syscalls only. The fd is created non-blocking so
// os.NewFile registers it with the runtime poller: the reader goroutine
// blocks in f.Read without pinning a thread, and Close unblocks it with
// os.ErrClosed — no self-pipe, no second fd.
//
// Watches go on parent directories, not the files: a directory watch
// reports events for its direct children by name, and — unlike a watch
// on the file itself — keeps working when the file is replaced by
// rename(2), the atomic-write idiom every writer here uses.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"unsafe"
)

// watchMask covers every way a child file can change: written in place
// (CLOSE_WRITE, MODIFY, ATTRIB), atomically replaced (MOVED_TO),
// created fresh or removed (CREATE, DELETE, MOVED_FROM).
const watchMask = syscall.IN_CLOSE_WRITE | syscall.IN_MOVED_TO |
	syscall.IN_CREATE | syscall.IN_DELETE | syscall.IN_MOVED_FROM |
	syscall.IN_MODIFY | syscall.IN_ATTRIB

func newPlatform(paths []string) (*Watcher, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil, fmt.Errorf("fswatch: inotify_init: %w", err)
	}
	// Group the files by parent directory; remember each directory's
	// basenames so unrelated churn in a busy directory doesn't kick.
	byWd := make(map[int32]map[string]bool)
	added := make(map[string]int32)
	for _, p := range paths {
		dir := filepath.Dir(p)
		wd, ok := added[dir]
		if !ok {
			w, err := syscall.InotifyAddWatch(fd, dir, watchMask)
			if err != nil {
				syscall.Close(fd)
				return nil, fmt.Errorf("fswatch: watch %s: %w", dir, err)
			}
			wd = int32(w)
			added[dir] = wd
			byWd[wd] = make(map[string]bool)
		}
		byWd[wd][filepath.Base(p)] = true
	}
	f := os.NewFile(uintptr(fd), "inotify")
	w := &Watcher{kicks: make(chan struct{}, 1), close: f.Close}
	go readLoop(f, byWd, w.kicks)
	return w, nil
}

func readLoop(f *os.File, byWd map[int32]map[string]bool, kicks chan struct{}) {
	buf := make([]byte, 64<<10)
	for {
		n, err := f.Read(buf)
		if err != nil {
			return // closed (or the kernel gave up); Watch's poll still runs
		}
		if relevant(buf[:n], byWd) {
			select {
			case kicks <- struct{}{}:
			default: // a kick is already pending; bursts coalesce
			}
		}
	}
}

// relevant reports whether any event in the batch plausibly concerns a
// watched file. Anything ambiguous — queue overflow, an unknown watch
// descriptor, a nameless event — counts as relevant: a spurious kick
// costs one cheap restat in Watch, a missed one costs a poll interval.
func relevant(buf []byte, byWd map[int32]map[string]bool) bool {
	for off := 0; off+syscall.SizeofInotifyEvent <= len(buf); {
		ev := (*syscall.InotifyEvent)(unsafe.Pointer(&buf[off]))
		end := off + syscall.SizeofInotifyEvent + int(ev.Len)
		if end > len(buf) {
			return true // truncated batch: err toward kicking
		}
		if ev.Mask&syscall.IN_Q_OVERFLOW != 0 {
			return true
		}
		names, known := byWd[ev.Wd]
		if !known {
			return true
		}
		name := buf[off+syscall.SizeofInotifyEvent : end]
		if i := bytes.IndexByte(name, 0); i >= 0 {
			name = name[:i]
		}
		if len(name) == 0 || names[string(name)] {
			return true
		}
		off = end
	}
	return false
}
