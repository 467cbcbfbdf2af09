package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pathalias/internal/routedb"
)

// inPlaceMap renders an n-host map rooted at unc: a binary tree of
// links plus one cross link per host, so routes stay short. Variant v
// shifts every cost, and odd variants declare only the first three
// quarters of the hosts, so consecutive variants alternate between
// longer and shorter files.
func inPlaceMap(n, v int) string {
	decl := n
	if v%2 == 1 {
		decl = n * 3 / 4
	}
	var b strings.Builder
	fmt.Fprintf(&b, "unc\th0(%d)\n", 10+v%7)
	for i := 0; i < decl; i++ {
		fmt.Fprintf(&b, "h%d\th%d(%d), h%d(%d), h%d(%d)\n", i,
			2*i+1, 10+(i+v)%50, 2*i+2, 10+(i*3+v)%50, (i*7+3)%n, 200+(i*v)%90)
	}
	return b.String()
}

// TestMapModeSurvivesInPlaceRewrites is the regression for the -map
// SIGBUS: map sources used to be memory-mapped, and an editor saving in
// place (truncate, then write) pulled pages out from under the engine
// while it hashed or scanned them. Fifty in-place saves alternate
// shorter and longer content while line-protocol queries run alongside;
// the daemon must never fault or stop answering, and must end up
// serving exactly the final content's routes.
func TestMapModeSurvivesInPlaceRewrites(t *testing.T) {
	const hosts = 4000
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "live.map")
	if err := os.WriteFile(mapPath, []byte(inPlaceMap(hosts, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newMapDaemon(routedb.Options{}, io.Discard)
	w, err := newMapWatcher(d, "unc", 8, []string{mapPath}, "")
	if err != nil {
		t.Fatal(err)
	}
	goWatch(t, func(ctx context.Context) { w.watch(ctx, time.Millisecond) })

	// Every queried host is declared early in every variant, so every
	// reply must be "ok", whatever (possibly torn) content is mapped.
	var queries strings.Builder
	for i := 1; i <= 32; i++ {
		fmt.Fprintf(&queries, "h%d user\n", i)
	}
	stop := make(chan struct{})
	queried := make(chan error, 1)
	var batches atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				queried <- nil
				return
			default:
			}
			var out strings.Builder
			if err := d.serveConn(strings.NewReader(queries.String()), &out); err != nil {
				queried <- err
				return
			}
			for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
				if !strings.HasPrefix(line, "ok ") {
					queried <- fmt.Errorf("reply %q during rewrites", line)
					return
				}
			}
			batches.Add(1)
		}
	}()

	var final string
	for v := 1; v <= 50; v++ {
		final = inPlaceMap(hosts, v)
		if err := os.WriteFile(mapPath, []byte(final), 0o644); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(v%4) * time.Millisecond)
	}
	close(stop)
	if err := <-queried; err != nil {
		t.Fatal(err)
	}
	if batches.Load() == 0 {
		t.Fatal("no query batch completed during the rewrites")
	}

	want := batchImage(t, final)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got bytes.Buffer
		if _, err := d.store.DB().WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got.Bytes(), want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("served routes never converged on the final content (%d vs %d image bytes)", got.Len(), len(want))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
