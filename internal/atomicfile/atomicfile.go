// Package atomicfile publishes files atomically and durably — the one
// write discipline every producer of a served artifact (route files,
// compiled rdb images) shares.
//
// A consumer of a published file — a routed watcher mid-hot-swap, a
// mailer opening the route database, a warm-starting daemon after a
// crash — must never observe a partial file at the final path. Publish
// guarantees that with the classic recipe, each step of which exists
// for a specific failure:
//
//   - the content is written to a temporary file in the destination
//     directory (same filesystem, so the final step can be a rename,
//     which POSIX makes atomic);
//   - the temp file is fsync'd before the rename. Without this a crash
//     shortly *after* the rename can leave the final name pointing at a
//     truncated or empty file: the rename (a metadata operation) can
//     reach disk before the data blocks do;
//   - the rename replaces the final path in one step — readers see the
//     old bytes or the new bytes, never a mix;
//   - the directory is fsync'd after the rename (best effort), so the
//     new directory entry itself survives a crash.
//
// The temp file is created with permission 0666 filtered by the
// process umask — like os.Create — not os.CreateTemp's private 0600,
// which would make every published database unreadable to the mailers
// and fellow daemons it exists for.
//
// On any error the temp file is removed and the previous contents of
// the final path survive untouched.
package atomicfile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// writeBufSize buffers the write callback, so line-at-a-time producers
// (the text route file) do not pay a syscall per line.
const writeBufSize = 256 << 10

// Publish atomically replaces path with the bytes write produces.
// write receives a buffered writer; its error, the flush, the fsync,
// the close, and the rename are all checked — a half-written file must
// never look like success — and on any failure the temp file is
// removed and path is left untouched.
func Publish(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, tmp, err := createTemp(dir, filepath.Base(path))
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, writeBufSize)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// createTemp opens a fresh exclusive temp file next to the target.
// O_EXCL with an explicit 0666 gives the kernel the mode decision (the
// umask applies naturally, no racy chmod dance); the pid+counter name
// only ever collides with a concurrent publisher of the same path,
// which the retry loop resolves.
func createTemp(dir, base string) (*os.File, string, error) {
	for i := 0; ; i++ {
		tmp := filepath.Join(dir, fmt.Sprintf(".%s.tmp.%d.%d", base, os.Getpid(), i))
		f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if err == nil {
			return f, tmp, nil
		}
		if !os.IsExist(err) || i >= 10000 {
			return nil, "", err
		}
	}
}

// syncDir fsyncs the directory holding a just-renamed file, so the new
// directory entry is durable. Best effort: some filesystems and
// platforms reject fsync on a directory handle, and the rename itself
// already happened — an error here must not fail a publish that every
// subsequent reader will observe correctly.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Publisher keeps the file at Path holding the newest generation of
// its content. It guards its own state: calls are serialized, so
// callers need no lock (and write must not call Publish).
type Publisher struct {
	Path string

	mu  sync.Mutex
	gen uint64 // the generation Path holds, once ok
	ok  bool   // a generation was written or adopted
}

// Publish makes Path hold generation gen, whose bytes write produces,
// and reports whether it wrote the file. It calls write only when Path
// may not hold gen, and its first call adopts a file that already
// holds exactly those bytes (a restart). It writes through Publish,
// which keeps the previous file on failure.
func (p *Publisher) Publish(gen uint64, write func(io.Writer) error) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ok && p.gen == gen {
		return false, nil
	}
	if !p.ok {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return false, err
		}
		if old, err := os.ReadFile(p.Path); err == nil && bytes.Equal(old, buf.Bytes()) {
			p.gen, p.ok = gen, true
			return false, nil
		}
		write = func(w io.Writer) error { _, err := w.Write(buf.Bytes()); return err }
	}
	if err := Publish(p.Path, write); err != nil {
		return false, err
	}
	p.gen, p.ok = gen, true
	return true, nil
}
