// Command routeload drives lookup traffic against a running routed
// daemon and reports throughput and latency — the measuring half of the
// serving hot path. It speaks both server surfaces:
//
//	routeload -tcp  host:port -d routes.db          # line protocol
//	routeload -http http://host:port -d routes.db   # POST /routes bulk
//
// Destinations are drawn round-robin from a route database (-d, text or
// compiled binary) or a plain list of names (-hosts). -depth sets the
// pipeline depth: 1 means one request per round trip (the classic
// stop-and-wait baseline), larger values batch that many requests on
// the wire before reading replies, which is where the pipelined
// protocol earns its throughput. -c opens that many concurrent
// connections, each pipelining independently.
//
// Output is a one-line human summary, or with -json a machine-readable
// record (QPS, p50/p90/p99/max latency, error count, GOMAXPROCS) meant
// to be collected into BENCH_serve.json. With -scrape url, routeload
// also fetches the daemon's /metrics after the run and reports the
// server-side latency histogram next to the client numbers, so wire
// cost and server cost separate at a glance.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"pathalias/internal/obs"
	"pathalias/internal/routedb"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the machine-readable record one routeload run emits.
type result struct {
	Mode      string  `json:"mode"` // "tcp" or "http"
	Target    string  `json:"target"`
	Conns     int     `json:"conns"`
	Depth     int     `json:"depth"`
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	Secs      float64 `json:"secs"`
	QPS       float64 `json:"qps"`
	P50us     float64 `json:"p50_us"`
	P90us     float64 `json:"p90_us"`
	P99us     float64 `json:"p99_us"`
	MaxUs     float64 `json:"max_us"`
	GoMaxProc int     `json:"gomaxprocs"`

	// Server-side latency scraped from routed's /metrics after the run
	// (-scrape). Client latency includes the wire and the batching; the
	// server histogram is what routed itself spent per request, so the
	// gap between the two is the transport. Bucket-interpolated, so
	// coarser than the client's exact samples.
	SrvSamples uint64  `json:"srv_samples,omitempty"`
	SrvP50us   float64 `json:"srv_p50_us,omitempty"`
	SrvP99us   float64 `json:"srv_p99_us,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("routeload", flag.ContinueOnError)
	var (
		tcpAddr = fs.String("tcp", "", "routed line-protocol address (host:port)")
		httpURL = fs.String("http", "", "routed HTTP base URL (http://host:port); drives POST /routes")
		dbPath  = fs.String("d", "", "route database (text or binary) to draw destination names from")
		hosts   = fs.String("hosts", "", "file of destination names, one per line (alternative to -d)")
		n       = fs.Int("n", 10000, "total requests to send")
		conns   = fs.Int("c", 1, "concurrent connections")
		depth   = fs.Int("depth", 64, "pipeline depth: requests on the wire per batch (1 = stop-and-wait baseline)")
		user    = fs.String("user", "user", "user name sent with every request")
		from    = fs.String("f", "", "vantage host: prefix every request with from=<host> (server in -map mode)")
		jsonOut = fs.Bool("json", false, "emit the result as one JSON object")
		scrape  = fs.String("scrape", "", "routed /metrics URL: after the run, report the server-side latency histogram next to the client numbers")
	)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*tcpAddr == "") == (*httpURL == "") {
		fmt.Fprintln(stderr, "routeload: exactly one of -tcp or -http is required")
		return 2
	}
	if (*dbPath == "") == (*hosts == "") {
		fmt.Fprintln(stderr, "routeload: exactly one of -d or -hosts is required")
		return 2
	}
	if *n <= 0 || *conns <= 0 || *depth <= 0 {
		fmt.Fprintln(stderr, "routeload: -n, -c and -depth must be positive")
		return 2
	}

	dests, err := loadDests(*dbPath, *hosts)
	if err != nil {
		fmt.Fprintf(stderr, "routeload: %v\n", err)
		return 1
	}
	if len(dests) == 0 {
		fmt.Fprintln(stderr, "routeload: no destination names to query")
		return 1
	}
	lines := requestLines(dests, *from, *user)

	res := result{
		Conns:     *conns,
		Depth:     *depth,
		Requests:  *n,
		GoMaxProc: runtime.GOMAXPROCS(0),
	}
	var lats []time.Duration
	var errs int
	start := time.Now()
	if *tcpAddr != "" {
		res.Mode, res.Target = "tcp", *tcpAddr
		lats, errs, err = driveTCP(*tcpAddr, lines, *n, *conns, *depth)
	} else {
		res.Mode, res.Target = "http", *httpURL
		lats, errs, err = driveHTTP(*httpURL, lines, *n, *conns, *depth)
	}
	if err != nil {
		fmt.Fprintf(stderr, "routeload: %v\n", err)
		return 1
	}
	res.Secs = time.Since(start).Seconds()
	res.Errors = errs
	res.QPS = float64(len(lats)) / res.Secs
	res.Requests = len(lats)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res.P50us = us(percentile(lats, 0.50))
	res.P90us = us(percentile(lats, 0.90))
	res.P99us = us(percentile(lats, 0.99))
	if len(lats) > 0 {
		res.MaxUs = us(lats[len(lats)-1])
	}

	if *scrape != "" {
		surface := "line"
		if res.Mode == "http" {
			surface = "http_routes"
		}
		if err := scrapeServer(&res, *scrape, surface); err != nil {
			fmt.Fprintf(stderr, "routeload: scrape %s: %v\n", *scrape, err)
			return 1
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(stderr, "routeload: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "%s %s: %d reqs, %d conns, depth %d: %.0f qps, p50 %.0fµs p90 %.0fµs p99 %.0fµs max %.0fµs, %d errors",
		res.Mode, res.Target, res.Requests, res.Conns, res.Depth, res.QPS, res.P50us, res.P90us, res.P99us, res.MaxUs, res.Errors)
	if res.SrvSamples > 0 {
		fmt.Fprintf(stdout, " | server: %d samples, p50 %.0fµs p99 %.0fµs", res.SrvSamples, res.SrvP50us, res.SrvP99us)
	}
	fmt.Fprintln(stdout)
	return 0
}

// scrapeServer fetches routed's /metrics and fills in the server-side
// request-latency quantiles for the surface this run drove: "line" for
// -tcp, "http_routes" for -http (POST /routes observes batch means).
func scrapeServer(res *result, url, surface string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s", resp.Status)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		return err
	}
	pts := obs.HistogramBuckets(samples, "routed_request_seconds", map[string]string{"surface": surface})
	if len(pts) == 0 {
		return fmt.Errorf("no routed_request_seconds{surface=%q} series (old routed, or wrong URL?)", surface)
	}
	res.SrvSamples = uint64(pts[len(pts)-1].Count)
	res.SrvP50us = obs.HistogramQuantile(0.50, pts) * 1e6
	res.SrvP99us = obs.HistogramQuantile(0.99, pts) * 1e6
	return nil
}

// loadDests returns the destination names to query: the hosts of every
// entry in a route database, or the lines of a -hosts file.
func loadDests(dbPath, hostsPath string) ([]string, error) {
	if hostsPath != "" {
		data, err := os.ReadFile(hostsPath)
		if err != nil {
			return nil, err
		}
		var dests []string
		for _, l := range strings.Split(string(data), "\n") {
			if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
				dests = append(dests, l)
			}
		}
		return dests, nil
	}
	db, err := routedb.Open(dbPath, routedb.Options{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	dests := make([]string, 0, db.Len())
	for _, e := range db.Entries() {
		dests = append(dests, e.Host)
	}
	return dests, nil
}

// requestLines pre-renders one protocol line per destination so the hot
// loop only writes bytes.
func requestLines(dests []string, from, user string) [][]byte {
	prefix := ""
	if from != "" {
		prefix = "from=" + from + " "
	}
	lines := make([][]byte, len(dests))
	for i, d := range dests {
		lines[i] = []byte(prefix + d + " " + user + "\n")
	}
	return lines
}

// driveTCP sends total requests over conns connections speaking the
// line protocol, depth requests on the wire per batch. Latency for each
// request is measured from the batch flush to its reply line — at
// depth 1 that is the classic per-request round trip.
func driveTCP(addr string, lines [][]byte, total, conns, depth int) ([]time.Duration, int, error) {
	return drive(total, conns, func(worker, offset, count int) ([]time.Duration, int, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, 0, err
		}
		defer conn.Close()
		bw := bufio.NewWriterSize(conn, 64<<10)
		br := bufio.NewReaderSize(conn, 64<<10)
		lats := make([]time.Duration, 0, count)
		errs := 0
		for sent := 0; sent < count; {
			batch := min(depth, count-sent)
			for i := 0; i < batch; i++ {
				if _, err := bw.Write(lines[(offset+sent+i)%len(lines)]); err != nil {
					return nil, 0, err
				}
			}
			t0 := time.Now()
			if err := bw.Flush(); err != nil {
				return nil, 0, err
			}
			for i := 0; i < batch; i++ {
				reply, err := br.ReadString('\n')
				if err != nil {
					return nil, 0, fmt.Errorf("reading reply: %w", err)
				}
				lats = append(lats, time.Since(t0))
				if strings.HasPrefix(reply, "err ") {
					errs++
				}
			}
			sent += batch
		}
		return lats, errs, nil
	})
}

// driveHTTP posts batches of depth request lines to <base>/routes from
// conns workers. Every request in a batch gets the batch's round-trip
// latency — the same accounting as pipelined TCP.
func driveHTTP(base string, lines [][]byte, total, conns, depth int) ([]time.Duration, int, error) {
	url := strings.TrimSuffix(base, "/") + "/routes"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}}
	defer client.CloseIdleConnections()
	return drive(total, conns, func(worker, offset, count int) ([]time.Duration, int, error) {
		lats := make([]time.Duration, 0, count)
		errs := 0
		var body bytes.Buffer
		for sent := 0; sent < count; {
			batch := min(depth, count-sent)
			body.Reset()
			for i := 0; i < batch; i++ {
				body.Write(lines[(offset+sent+i)%len(lines)])
			}
			t0 := time.Now()
			resp, err := client.Post(url, "text/plain", bytes.NewReader(body.Bytes()))
			if err != nil {
				return nil, 0, err
			}
			replies, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, 0, err
			}
			if resp.StatusCode != http.StatusOK {
				return nil, 0, fmt.Errorf("POST /routes: %s", resp.Status)
			}
			d := time.Since(t0)
			got := 0
			for _, reply := range strings.SplitAfter(string(replies), "\n") {
				if reply == "" {
					continue
				}
				got++
				lats = append(lats, d)
				if strings.HasPrefix(reply, "err ") {
					errs++
				}
			}
			if got != batch {
				return nil, 0, fmt.Errorf("POST /routes: sent %d lines, got %d replies", batch, got)
			}
			sent += batch
		}
		return lats, errs, nil
	})
}

// drive splits total requests across conns workers and merges their
// latency samples and error counts.
func drive(total, conns int, worker func(worker, offset, count int) ([]time.Duration, int, error)) ([]time.Duration, int, error) {
	type out struct {
		lats []time.Duration
		errs int
		err  error
	}
	outs := make([]out, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		count := total / conns
		if w < total%conns {
			count++
		}
		if count == 0 {
			continue
		}
		wg.Add(1)
		go func(w, count int) {
			defer wg.Done()
			lats, errs, err := worker(w, w*count, count)
			outs[w] = out{lats, errs, err}
		}(w, count)
	}
	wg.Wait()
	var lats []time.Duration
	errs := 0
	for _, o := range outs {
		if o.err != nil {
			return nil, 0, o.err
		}
		lats = append(lats, o.lats...)
		errs += o.errs
	}
	return lats, errs, nil
}

// percentile returns the p-th percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
