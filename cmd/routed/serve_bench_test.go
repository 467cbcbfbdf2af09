package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathalias/internal/routedb"
)

// benchDaemon builds a daemon over a generated ~1000-host route table,
// in text mode or compiled-binary (-db, mmap-served) mode.
func benchDaemon(b *testing.B, binary bool) *daemon {
	b.Helper()
	dir := b.TempDir()
	path := filepath.Join(dir, "routes.db")
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "%d\thost%04d\tgate%d!host%04d!%%s\n", 100+i, i, i%7, i)
	}
	sb.WriteString("10\t.edu\tseismo!%s\n")
	sb.WriteString("20\t.rutgers.edu\tseismo!rutgers!%s\n")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	d, err := newDaemon(path, false, routedb.Options{}, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	if !binary {
		return d
	}
	bd, err := newDaemonBinaryFile(d, filepath.Join(dir, "routes.rdb"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(bd.audits.Wait)
	return bd
}

// benchRequests renders n request lines cycling exact hits, suffix
// hits, and the occasional miss — the steady-state query mix.
func benchRequests(n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		switch i % 8 {
		case 6:
			fmt.Fprintf(&buf, "dept%d.caip.rutgers.edu user%d\n", i%13, i%17)
		case 7:
			fmt.Fprintf(&buf, "nowhere%d user%d\n", i%13, i%17)
		default:
			fmt.Fprintf(&buf, "host%04d user%d\n", i%1000, i%17)
		}
	}
	return buf.Bytes()
}

// BenchmarkServeConnDB is the allocation lockdown for the serving hot
// path: b.N pipelined requests through serveConn against the
// mmap-served compiled database, no network. allocs/op is allocations
// per request — the acceptance bar is ≤2 steady-state.
func BenchmarkServeConnDB(b *testing.B) {
	d := benchDaemon(b, true)
	reqs := benchRequests(b.N)
	b.ReportAllocs()
	b.SetBytes(int64(len(reqs)) / int64(max(b.N, 1)))
	b.ResetTimer()
	if err := d.serveConn(bytes.NewReader(reqs), io.Discard); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeConnText: the same path over the parsed in-memory text
// database.
func BenchmarkServeConnText(b *testing.B) {
	d := benchDaemon(b, false)
	reqs := benchRequests(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	if err := d.serveConn(bytes.NewReader(reqs), io.Discard); err != nil {
		b.Fatal(err)
	}
}

// benchTCP starts the daemon's TCP line-protocol server and returns its
// address.
func benchTCP(b *testing.B, d *daemon) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go d.serveTCP(ctx, ln)
	b.Cleanup(cancel)
	return ln.Addr().String()
}

// BenchmarkTCPRoundTrip is the pre-change behavior a per-line-flushing
// server forces on clients: one request per network round trip
// (stop-and-wait), one op per request.
func BenchmarkTCPRoundTrip(b *testing.B) {
	d := benchDaemon(b, true)
	addr := benchTCP(b, d)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	reqs := bytes.SplitAfter(benchRequests(1024), []byte("\n"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(reqs[i%1024]); err != nil {
			b.Fatal(err)
		}
		if _, err := br.ReadSlice('\n'); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTCPPipelined drives one connection with depth requests on the
// wire per batch; one op is one request.
func benchTCPPipelined(b *testing.B, depth int) {
	d := benchDaemon(b, true)
	addr := benchTCP(b, d)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, connBufSize)
	br := bufio.NewReaderSize(conn, connBufSize)
	reqs := bytes.SplitAfter(benchRequests(1024), []byte("\n"))
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		batch := min(depth, b.N-sent)
		for i := 0; i < batch; i++ {
			if _, err := bw.Write(reqs[(sent+i)%1024]); err != nil {
				b.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < batch; i++ {
			if _, err := br.ReadSlice('\n'); err != nil {
				b.Fatal(err)
			}
		}
		sent += batch
	}
}

// BenchmarkTCPPipelined64: the pipelined protocol at depth 64 — the
// single-connection throughput the rewrite buys over TCPRoundTrip.
func BenchmarkTCPPipelined64(b *testing.B)  { benchTCPPipelined(b, 64) }
func BenchmarkTCPPipelined256(b *testing.B) { benchTCPPipelined(b, 256) }

// BenchmarkTCPPipelinedParallel scales connections with GOMAXPROCS (run
// with -cpu 1,2,4 for the curve): each parallel goroutine owns one
// pipelined connection.
func BenchmarkTCPPipelinedParallel(b *testing.B) {
	d := benchDaemon(b, true)
	addr := benchTCP(b, d)
	reqs := bytes.SplitAfter(benchRequests(1024), []byte("\n"))
	const depth = 64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		bw := bufio.NewWriterSize(conn, connBufSize)
		br := bufio.NewReaderSize(conn, connBufSize)
		i := 0
		for {
			batch := 0
			for batch < depth && pb.Next() {
				if _, err := bw.Write(reqs[i%1024]); err != nil {
					b.Error(err)
					return
				}
				i++
				batch++
			}
			if batch == 0 {
				return
			}
			if err := bw.Flush(); err != nil {
				b.Error(err)
				return
			}
			for j := 0; j < batch; j++ {
				if _, err := br.ReadSlice('\n'); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// BenchmarkHTTPSingleRoute: one GET /route per request — the HTTP
// analogue of stop-and-wait.
func BenchmarkHTTPSingleRoute(b *testing.B) {
	d := benchDaemon(b, true)
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	client := srv.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(fmt.Sprintf("%s/route?dest=host%04d&user=u", srv.URL, i%1000))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkHTTPBulkRoutes64: POST /routes with 64 requests per call;
// one op is one request.
func BenchmarkHTTPBulkRoutes64(b *testing.B) {
	d := benchDaemon(b, true)
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	client := srv.Client()
	reqs := bytes.SplitAfter(benchRequests(1024), []byte("\n"))
	const depth = 64
	var body bytes.Buffer
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		batch := min(depth, b.N-sent)
		body.Reset()
		for i := 0; i < batch; i++ {
			body.Write(reqs[(sent+i)%1024])
		}
		resp, err := client.Post(srv.URL+"/routes", "text/plain", bytes.NewReader(body.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("POST /routes: %s", resp.Status)
		}
		sent += batch
	}
}
