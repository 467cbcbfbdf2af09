package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"

	"pathalias/internal/fswatch"
	"pathalias/internal/obs"
	"pathalias/internal/rdb"
	"pathalias/internal/routedb"
	"pathalias/internal/whatif"
)

// daemon serves one route database: a hot-swappable store, the line
// protocol, the HTTP endpoints, and the watcher that reloads the store
// when the backing file changes. The store is fed either from a
// precompiled route file (-d) or by an incremental re-map engine over
// map sources (-map; see mapwatch.go) — the serving side is identical.
type daemon struct {
	path   string // route file, text or image (-d); "" in -map mode
	binary bool   // path must be a compiled rdb image (-db)
	opts   routedb.Options
	store  *routedb.Store
	logw   io.Writer

	// mw is the -map watcher: the live engine behind from= vantages
	// and what-if. Nil in the precompiled modes; gate is the one way in.
	mw *mapWatcher

	// audits tracks in-flight background image verifications
	// (auditImage); tests Wait on it.
	audits sync.WaitGroup

	// Telemetry (metrics.go). metrics feeds GET /metrics and the /stats
	// latency summaries; it is nil only when a test clears it to measure
	// instrumentation overhead. traces retains the most recent re-map
	// generation traces (-map mode; GET /lastmap, `trace`). demoted is
	// set while the store serves a predecessor because the newest image
	// failed its background audit — /readyz reports it — and cleared by
	// the next successful swap.
	metrics   *serverMetrics
	traces    *obs.TraceRing
	demoted   atomic.Bool
	started   time.Time
	version   string
	imagePath string // compiled image served (-db) or published (-o-db)

	// slowThresh is the slow-query log threshold (-slow); 0 disables.
	// Only the surfaces that already read the clock per request check it
	// (GET /route, the what-if forms) — the pipelined line path is
	// measured per batch and never individually.
	slowThresh time.Duration

	// log is the structured logger every daemon message goes through;
	// logLvl backs -log-level. logf/warnf keep the printf shape the
	// call sites always had.
	log    *slog.Logger
	logLvl *slog.LevelVar

	// mu guards reloads (watch loop + explicit reload) and the memo of
	// what the last one read: the text's bytes, or an image's footer
	// checksum (served or rejected). lastImage says which memo holds.
	mu        sync.Mutex
	lastText  []byte
	lastCRC   uint32
	lastImage bool

	// loadedAt and swaps record the default store's swaps (install).
	loadedAt atomic.Pointer[time.Time]
	swaps    atomic.Uint64
}

// traceRingSize is how many re-map generation traces -map mode retains
// for GET /lastmap?n= and post-hoc "why was that edit slow" questions.
const traceRingSize = 64

// newDaemon loads path into a fresh store. A compiled route database
// (rdb) is memory-mapped and served with no parse — the instant-start
// mode — and hot reloads swap in a fresh mapping, leaving old ones to
// the garbage collector once in-flight lookups drain. Without binary,
// path may hold either format, and each reload tells which; with it,
// path must hold an image.
func newDaemon(path string, binary bool, opts routedb.Options, logw io.Writer) (*daemon, error) {
	d := &daemon{path: path, binary: binary, opts: opts, store: routedb.NewStore(nil), logw: logw}
	d.initTelemetry()
	if err := d.reload(); err != nil {
		return nil, err
	}
	return d, nil
}

// newMapDaemon returns a daemon whose store is fed by a map watcher
// rather than a route file; the caller swaps databases in directly.
func newMapDaemon(opts routedb.Options, logw io.Writer) *daemon {
	d := &daemon{opts: opts, store: routedb.NewStore(nil), logw: logw}
	d.initTelemetry()
	d.traces = obs.NewTraceRing(traceRingSize)
	return d
}

// initTelemetry wires the logger and metrics registry common to every
// mode. The level defaults to Info; run() lowers or raises it from
// -log-level after construction.
func (d *daemon) initTelemetry() {
	d.started = time.Now()
	d.version = "dev"
	d.logLvl = new(slog.LevelVar)
	d.log = slog.New(slog.NewTextHandler(d.logw, &slog.HandlerOptions{Level: d.logLvl}))
	d.metrics = newServerMetrics(d)
}

func (d *daemon) logf(format string, args ...any) {
	d.log.Info(fmt.Sprintf(format, args...))
}

func (d *daemon) warnf(format string, args ...any) {
	d.log.Warn(fmt.Sprintf(format, args...))
}

// A surface names where a request arrived, for the slow-query log, and
// picks the latency histogram it lands in.
type surface struct {
	name string
	hist func(*serverMetrics) *obs.Histogram
}

var (
	surfaceLine   = surface{"line", func(m *serverMetrics) *obs.Histogram { return m.whatifReq }}
	surfaceWhatif = surface{"whatif", func(m *serverMetrics) *obs.Histogram { return m.whatifReq }}
	surfaceRoute  = surface{"http_route", func(m *serverMetrics) *obs.Histogram { return m.httpRoute }}
)

// observe times one request that arrived on s at start, in s's
// histogram; past the -slow threshold the query is counted and logged
// with raw, enough of the request to name the culprit destination,
// vantage, and overlay.
func (d *daemon) observe(s surface, raw string, start time.Time) {
	if d.metrics == nil {
		return
	}
	dur := time.Since(start)
	s.hist(d.metrics).Observe(dur)
	if d.slowThresh <= 0 || dur < d.slowThresh {
		return
	}
	d.metrics.slow.Inc()
	d.log.Warn("slow query", "surface", s.name, "request", raw,
		"dur", dur.Round(time.Microsecond).String(), "threshold", d.slowThresh.String())
}

// install swaps db in as the default database and records the swap:
// the load time and swap count /stats reports, and the end of any
// demotion. It returns the database db replaced.
func (d *daemon) install(db *routedb.DB) (prev *routedb.DB) {
	prev = d.store.Swap(db)
	now := time.Now()
	d.loadedAt.Store(&now)
	d.swaps.Add(1)
	d.demoted.Store(false)
	return prev
}

// reload swaps in the route file's database, unless the file holds
// what the last reload read. Lookups proceed against the old database
// until the swap. The file's first bytes pick the format
// (routedb.IsBinaryFile), unless -db already requires an image.
func (d *daemon) reload() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	image := d.binary
	if !image {
		var err error
		if image, err = routedb.IsBinaryFile(d.path); err != nil {
			return err
		}
	}
	if image {
		return d.reloadBinaryLocked()
	}
	return d.reloadTextLocked()
}

// reloadTextLocked parses and indexes the linear route file and swaps
// it in; d.mu must be held. The bytes are kept even when parsing
// fails, so a persistently malformed file is not re-parsed on every
// watch wake-up — only when it changes again. Comparing the bytes
// themselves, not a fingerprint, means no rewrite can pass for the
// served content; the cost is one copy of the route file kept in
// memory.
func (d *daemon) reloadTextLocked() error {
	data, err := os.ReadFile(d.path)
	if err != nil {
		return err
	}
	if !d.lastImage && d.swaps.Load() > 0 && bytes.Equal(data, d.lastText) {
		return nil
	}
	d.lastText, d.lastImage = data, false
	db, err := routedb.LoadWith(bytes.NewReader(data), d.opts)
	if err != nil {
		return err
	}
	d.install(db)
	d.logf("loaded %d routes from %s", db.Len(), d.path)
	return nil
}

// reloadBinaryLocked opens the compiled database and swaps it in;
// d.mu must be held. No parsing happens: the image is mapped,
// checksummed and validated. Its footer checksum is probed first: an
// image the daemon already serves (or already rejected) is not
// re-opened. The audit-grade verification the open path defers runs
// in the background after the swap. A superseded mapping is released
// by the garbage collector once no in-flight lookup can hold it
// (routedb ties the munmap to the old DB's reachability).
func (d *daemon) reloadBinaryLocked() error {
	// A footer that cannot be read (mid-replace, truncated) is never
	// "unchanged": the open below reports what is wrong with the file.
	crc, cerr := rdb.FileChecksum(d.path)
	if d.lastImage && cerr == nil && d.swaps.Load() > 0 && crc == d.lastCRC {
		return nil
	}
	d.lastText, d.lastImage = nil, true
	db, err := routedb.OpenBinary(d.path)
	if err != nil {
		// Memoize the rejected image's checksum so a persistently
		// corrupt file is re-probed by its footer, not re-opened, until
		// it changes again.
		d.lastCRC = 0
		if cerr == nil {
			d.lastCRC = crc
		}
		return err
	}
	// Record the served image's own checksum — not the probe above,
	// which could fingerprint a different image if the file was
	// replaced between the two opens.
	d.lastCRC, _ = db.Binary()
	if got := db.Options(); got != d.opts {
		d.logf("note: %s was compiled with FoldCase=%v; the file's setting wins over the -i flag", d.path, got.FoldCase)
	}
	prev := d.install(db)
	d.logf("mapped %d routes from %s (no parse)", db.Len(), d.path)
	d.auditImage(db, prev, d.path)
	return nil
}

// auditImage runs the audit-grade verification the binary open path
// defers for cold-start speed (routedb.DeepVerify — today, the probe
// reachability proof) in the background, after db has already started
// serving. On a fault the store is demoted back to prev with a logged
// error — unless a newer database superseded db first, in which case
// the late verdict must not clobber it. Failures only log and demote:
// serving answers from the predecessor beats refusing to serve.
func (d *daemon) auditImage(db, prev *routedb.DB, src string) {
	d.audits.Add(1)
	go func() {
		defer d.audits.Done()
		err := db.DeepVerify()
		if err == nil {
			return
		}
		if d.store.CompareAndSwap(db, prev) {
			d.demoted.Store(true)
			if d.metrics != nil {
				d.metrics.demotions.Inc()
			}
			d.warnf("audit: %s failed deep verification: %v (demoted to the previous database)", src, err)
		} else {
			d.warnf("audit: %s failed deep verification: %v (already superseded)", src, err)
		}
	}()
}

// watch hot-swaps the store when the route file changes, until ctx is
// done. fswatch.Watch decides when the file may have changed (within
// milliseconds where the kernel offers file events, every interval
// regardless); reload's byte compare decides whether it did. A vanished
// or malformed file is logged once (fswatch.Watch's failure policy) and
// the old database keeps serving.
func (d *daemon) watch(ctx context.Context, interval time.Duration) {
	fswatch.Watch(ctx, []string{d.path}, interval, d.reload, func(err error) {
		d.warnf("reload: %v (still serving previous database)", err)
	})
}

// traceReply answers the `trace` protocol command with the newest
// re-map generation's stage trace.
func (d *daemon) traceReply() string {
	if d.traces == nil {
		return "err " + errTraceMode.Error()
	}
	t := d.traces.Last()
	if t == nil {
		return "err no re-map generation recorded yet"
	}
	return "ok " + t.Line()
}

// The refusals of the -map-only forms, each made here and nowhere else.
var (
	errFromMode   = errors.New("vantage queries (from=) require -map mode")
	errWhatifMode = errors.New("what-if queries require -map mode")
	errTraceMode  = errors.New("re-map traces require -map mode")
	errWarming    = errors.New("map engine still warming up (serving the last published image)")
)

// gate is the one way to the live map engine: it returns the watcher
// once the engine's first computation has landed, modeErr outside -map
// mode, and errWarming during a warm start, while the daemon serves the
// published image and the engine has no graph yet — engine-backed
// queries are refused rather than left waiting behind that computation.
func (d *daemon) gate(modeErr error) (*mapWatcher, error) {
	if d.mw == nil {
		return nil, modeErr
	}
	select {
	case <-d.mw.ready:
		return d.mw, nil
	default:
		return nil, errWarming
	}
}

// A whatifReq is one what-if request, whichever surface carried it:
// Op is "resolve", "explain" or "impact", From the vantage ("" for the
// -l host), and Overlay, Dest and User the operands Op reads. It is
// also POST /whatif's JSON body.
type whatifReq struct {
	Op      string `json:"op"`
	From    string `json:"from"`
	Overlay string `json:"overlay"`
	Dest    string `json:"dest"`
	User    string `json:"user"`
}

// whatif answers one what-if request for every surface. The gate comes
// first, then usage (the surface's own parse error, if it found one),
// then the evaluator; the time since start is observed for the surface,
// with raw naming the request in the slow-query log. The answer is the
// address (a string), a *whatif.ExplainResult or a *whatif.Impact: the
// surfaces only render it.
func (d *daemon) whatif(s surface, raw string, start time.Time, q whatifReq, usage error) (any, error) {
	defer d.observe(s, raw, start)
	w, err := d.gate(errWhatifMode)
	if err != nil {
		return nil, err
	}
	if usage != nil {
		return nil, usage
	}
	from := cmp.Or(q.From, w.local)
	switch q.Op {
	case "resolve":
		return w.whatif.Resolve(from, q.Overlay, q.Dest, q.User)
	case "explain":
		return w.whatif.Explain(from, q.Overlay, q.Dest)
	case "impact":
		return w.whatif.ImpactOf(from, q.Overlay)
	}
	return nil, errors.New("op must be resolve, explain, or impact")
}

// parseWhatifCommand parses the explain and impact commands,
// "explain|impact [from=host] [overlay=spec] [dest]", into a request
// and the usage error the dispatcher reports once the gate has passed.
func parseWhatifCommand(fields [][]byte) (q whatifReq, usage error) {
	q.Op = string(fields[0])
	hasOverlay := false
	for fields = fields[1:]; len(fields) > 0; fields = fields[1:] {
		if v, ok := bytes.CutPrefix(fields[0], fromPrefix); ok {
			q.From = string(v)
		} else if v, ok := bytes.CutPrefix(fields[0], overlayPrefix); ok {
			q.Overlay, hasOverlay = string(v), true
		} else {
			break
		}
	}
	switch {
	case hasOverlay && q.Overlay == "":
		return q, errors.New("whatif: empty overlay spec")
	case q.Op == "impact" && (q.Overlay == "" || len(fields) != 0):
		return q, errors.New("want: impact [from=host] overlay=spec")
	case q.Op == "explain" && len(fields) != 1:
		return q, errors.New("want: explain [from=host] [overlay=spec] dest")
	case q.Op == "explain":
		q.Dest = string(fields[0])
	}
	return q, nil
}

// lineReply renders a what-if answer, or its error, as a line-protocol
// reply.
func lineReply(ans any, err error) string {
	if err != nil {
		return "err " + err.Error()
	}
	switch a := ans.(type) {
	case string:
		return "ok " + a
	case *whatif.ExplainResult:
		if a.Under != nil {
			return "ok base: " + a.Base.Line() + " || overlay: " + a.Under.Line()
		}
		return "ok " + a.Base.Line()
	default:
		return "ok " + impactLine(ans.(*whatif.Impact))
	}
}

// impactLineMax caps how many per-host changes the one-line impact reply
// lists; the full report is available as JSON via POST /whatif.
const impactLineMax = 64

func impactLine(imp *whatif.Impact) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gen=%d routes=%d changed=%d added=%d removed=%d rerouted=%d recosted=%d",
		imp.Gen, imp.Routes, len(imp.Changed),
		imp.Stats.Added, imp.Stats.Removed, imp.Stats.Rerouted, imp.Stats.Recosted)
	for i, c := range imp.Changed {
		if i == impactLineMax {
			fmt.Fprintf(&b, " +%d more (POST /whatif for the full report)", len(imp.Changed)-impactLineMax)
			break
		}
		fmt.Fprintf(&b, " %s:%s", c.Host, c.Kind)
	}
	return b.String()
}

// The serving hot path. A mailer that writes N requests back-to-back
// gets N replies in about one round trip: replies accumulate in the
// write buffer and are flushed only when the read side has no more
// buffered input (i.e. the next read would block) or the buffer fills.
// Requests are read as bytes (no per-line string), parsed into reusable
// field slices, and answered through the allocation-free AppendResolve
// path into a pooled per-connection buffer — steady state, a request on
// the -db path allocates nothing and copies the route template straight
// off the mapped database pages into the connection buffer.

const (
	// maxLineLen caps one request line; longer lines are consumed and
	// answered with "err line too long" instead of killing the
	// connection.
	maxLineLen = 1 << 20
	// connBufSize sizes the per-connection read and write buffers; it
	// bounds how much pipelined batching one flush can carry.
	connBufSize = 64 << 10
)

// lineState is the pooled per-connection scratch: the reply line being
// built, the oversized-line accumulator, the request field split, and
// the resolver's scratch. Nothing in it survives a request except
// capacity.
type lineState struct {
	out    []byte
	long   []byte
	fields [][]byte
	sc     routedb.Scratch
}

var linePool = sync.Pool{New: func() any { return new(lineState) }}

// dropEOL trims one trailing \n and then one trailing \r, matching
// bufio.ScanLines framing.
func dropEOL(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// readLine reads the next request line. The returned slice aliases the
// reader's buffer (or st.long) and is valid until the next read. A line
// longer than maxLineLen is consumed to its newline and reported tooLong
// with no line. A final line with no newline is returned with a nil
// error, even when it is empty once its \r is dropped; err is io.EOF
// only once no input is left.
func readLine(br *bufio.Reader, st *lineState) (line []byte, tooLong bool, err error) {
	chunk, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		if err == io.EOF && len(chunk) > 0 {
			err = nil // the next read reports the EOF
		}
		return dropEOL(chunk), false, err
	}
	// Slow path: the line overflows the read buffer. Accumulate chunks
	// up to the cap; past it, keep consuming but stop copying.
	long := append(st.long[:0], chunk...)
	for err == bufio.ErrBufferFull {
		chunk, err = br.ReadSlice('\n')
		if !tooLong {
			if len(long)+len(chunk) > maxLineLen {
				tooLong = true
			} else {
				long = append(long, chunk...)
			}
		}
	}
	st.long = long
	if tooLong {
		return nil, true, err
	}
	if err == io.EOF {
		err = nil
	}
	return dropEOL(long), false, err
}

// serveConn runs the line protocol over one connection (or any
// read/write pair, e.g. stdin/stdout), pipelined: replies are flushed
// when the input side would block, when the write buffer fills, or at
// quit/EOF — never per line.
func (d *daemon) serveConn(r io.Reader, w io.Writer) error {
	br := bufio.NewReaderSize(r, connBufSize)
	bw := bufio.NewWriterSize(w, connBufSize)
	st := linePool.Get().(*lineState)
	defer linePool.Put(st)
	// Latency is observed per batch, not per request: one clock read
	// when a batch's first line arrives, one at its flush boundary, the
	// batch mean recorded once per request (Histogram.ObserveBatch).
	// Per-request time.Now() calls would be a measurable fraction of the
	// ~170ns a pipelined resolve costs.
	var hist *obs.Histogram
	if d.metrics != nil {
		hist = d.metrics.line
	}
	var batchN int
	var batchStart time.Time
	observeBatch := func() {
		if batchN > 0 {
			hist.ObserveBatch(time.Since(batchStart), batchN)
			batchN = 0
		}
	}
	for {
		// Flush before a read that would block: the client has seen
		// nothing of this batch yet, and the next request may be a
		// reply away.
		if br.Buffered() == 0 {
			if hist != nil {
				observeBatch()
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		line, tooLong, err := readLine(br, st)
		if hist != nil && batchN == 0 {
			batchStart = time.Now()
		}
		switch {
		case tooLong:
			if _, werr := bw.WriteString("err line too long\n"); werr != nil {
				return werr
			}
		case err == nil:
			var closing bool
			st.out, closing = d.handleLine(st.out[:0], line, st, true)
			if hist != nil {
				batchN++
			}
			if _, werr := bw.Write(st.out); werr != nil {
				return werr
			}
			if werr := bw.WriteByte('\n'); werr != nil {
				return werr
			}
			if closing {
				if hist != nil {
					observeBatch()
				}
				return bw.Flush()
			}
		}
		if err != nil {
			if hist != nil {
				observeBatch()
			}
			if err == io.EOF {
				return bw.Flush()
			}
			bw.Flush()
			return err
		}
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// runeSpace reports whether b starts with a rune strings.Fields splits
// on (unicode.IsSpace), and that rune's width. Invalid UTF-8 decodes to
// a one-byte RuneError, which is not a space, exactly as in
// strings.Fields.
func runeSpace(b []byte) (space bool, width int) {
	r, n := utf8.DecodeRune(b)
	return unicode.IsSpace(r), n
}

// appendFields splits line into fields exactly where strings.Fields
// would, reusing dst; the fields alias line. Only a byte >= 0x80 is
// decoded as UTF-8, so an ASCII line costs a table lookup per byte.
func appendFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i < len(line); {
		space, n := false, 1
		if c := line[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			space, n = runeSpace(line[i:])
		}
		switch {
		case space && start >= 0:
			dst = append(dst, line[start:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += n
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

var (
	fromPrefix    = []byte("from=")
	overlayPrefix = []byte("overlay=")
	quitWord      = []byte("quit")
	statsWord     = []byte("stats")
	traceWord     = []byte("trace")
	explainWord   = []byte("explain")
	impactWord    = []byte("impact")
	defaultUser   = []byte("%s")
)

// handleLine answers one request line of the line-oriented protocol,
// appending the reply to dst (no trailing newline):
//
//	[from=host] [overlay=spec] dest [user]
//	                          resolve a destination (user defaults to
//	                          the %s marker), optionally from another
//	                          vantage host, optionally under a what-if
//	                          overlay (both -map mode only)
//	explain [from=host] [overlay=spec] dest
//	                          explain the route hop by hop — and, with
//	                          an overlay, how it changes (-map mode)
//	impact [from=host] overlay=spec
//	                          report every host whose route changes
//	                          under the overlay (-map mode)
//	stats                     one-line counter dump
//	trace                     the newest re-map generation's stage
//	                          trace, one line (-map mode only)
//	quit                      close the connection
//
// An overlay spec is the what-if edit language with commas for
// whitespace so it fits one token: "dead,a,b;cost,a,c,DEMAND".
//
// Replies are "ok <payload>" or "err <message>" — a malformed or
// rejected what-if query is always answered, never dropped. The command
// words shadow hosts literally named
// "stats"/"quit"/"trace"/"explain"/"impact", but only in the first
// field: resolve those with an explicit user argument ("stats
// someuser") or a leading vantage ("from=unc explain").
//
// With commands false (the HTTP bulk endpoint) stats, trace and quit are
// not commands: those lines are resolves. The what-if forms are
// answered either way.
//
// Fields split where strings.Fields splits. A resolve never becomes a
// string: it is answered through the allocation-free AppendResolve
// path, which copies the route straight into dst. The what-if forms
// become a whatifReq of strings for the one what-if dispatcher; they map
// a graph, so the conversion is beside the point.
func (d *daemon) handleLine(dst, line []byte, st *lineState, commands bool) (out []byte, closing bool) {
	st.fields = appendFields(st.fields[:0], line)
	fields := st.fields
	if len(fields) > 0 && (bytes.Equal(fields[0], explainWord) || bytes.Equal(fields[0], impactWord)) {
		q, usage := parseWhatifCommand(fields)
		return append(dst, lineReply(d.whatif(surfaceLine, string(line), time.Now(), q, usage))...), false
	}
	var from, overlay []byte
	if len(fields) > 0 && bytes.HasPrefix(fields[0], fromPrefix) {
		from = fields[0][len(fromPrefix):]
		fields = fields[1:]
	}
	if len(fields) > 0 && bytes.HasPrefix(fields[0], overlayPrefix) {
		overlay = fields[0][len(overlayPrefix):]
		fields = fields[1:]
	}
	command := commands && len(fields) == 1 && len(from) == 0 && overlay == nil
	switch {
	case len(fields) == 0:
		return append(dst, "err empty request"...), false
	case command && bytes.Equal(fields[0], quitWord):
		return append(dst, "ok bye"...), true
	case command && bytes.Equal(fields[0], statsWord):
		dst = append(dst, "ok "...)
		return append(dst, d.statsLine()...), false
	case command && bytes.Equal(fields[0], traceWord):
		return append(dst, d.traceReply()...), false
	case len(fields) > 2:
		return append(dst, "err want: [from=host] [overlay=spec] dest [user]"...), false
	}
	user := defaultUser
	if len(fields) == 2 {
		user = fields[1]
	}
	dest := fields[0]
	if overlay != nil {
		q := whatifReq{Op: "resolve", From: string(from), Overlay: string(overlay), Dest: string(dest), User: string(user)}
		return append(dst, lineReply(d.whatif(surfaceLine, string(line), time.Now(), q, nil))...), false
	}
	store := d.store
	if len(from) > 0 {
		s, err := d.storeFor(from)
		if err != nil {
			dst = append(dst, "err "...)
			return append(dst, err.Error()...), false
		}
		store = s
	}
	mark := len(dst)
	dst = append(dst, "ok "...)
	out, ok := store.AppendResolve(dst, dest, user, &st.sc)
	if !ok {
		// store.Resolve's miss error, byte for byte: "routedb: no route
		// to " + %q of the raw destination.
		out = append(out[:mark], "err routedb: no route to "...)
		out = strconv.AppendQuote(out, string(dest))
	}
	return out, false
}

// Accept failures (EMFILE, say) back off between these bounds.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// serveTCP accepts line-protocol connections until ctx is done or the
// listener closes. A failing Accept is retried after a pause that
// starts at acceptBackoffMin and doubles up to acceptBackoffMax,
// resetting on the next success, as net/http.Server does: a persistent
// failure neither spins a core nor floods the log.
func (d *daemon) serveTCP(ctx context.Context, ln net.Listener) {
	defer context.AfterFunc(ctx, func() { ln.Close() })()
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			delay = min(max(2*delay, acceptBackoffMin), acceptBackoffMax)
			d.warnf("accept: %v (retrying in %v)", err, delay)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return
			}
			continue
		}
		delay = 0
		go func() {
			defer conn.Close()
			if err := d.serveConn(conn, conn); err != nil {
				d.warnf("conn %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// statsSnapshot is the JSON shape of /stats. The what-if and vantage
// fields appear only in -map mode; the precompiled modes' JSON is
// unchanged.
type statsSnapshot struct {
	Routes     int       `json:"routes"`
	Swaps      uint64    `json:"swaps"`
	LoadedAt   time.Time `json:"loaded_at"`
	Lookups    uint64    `json:"lookups"`
	Resolves   uint64    `json:"resolves"`
	Hits       uint64    `json:"hits"`
	SuffixHits uint64    `json:"suffix_hits"`
	Misses     uint64    `json:"misses"`
	// WhatIf carries the overlay cache counters: hits, misses,
	// evictions, resident overlay machines, and the mapping runs by how
	// they started (warm_runs, full_runs).
	WhatIf *whatif.Stats `json:"whatif,omitempty"`
	// Vantages maps each resident vantage to its route count.
	Vantages map[string]int `json:"vantages,omitempty"`
	// Version and UptimeSecs identify the process; Generation is the map
	// engine's update generation (-map mode); Image is the compiled
	// database served or published, when there is one.
	Version    string  `json:"version,omitempty"`
	UptimeSecs float64 `json:"uptime_secs"`
	Generation uint64  `json:"generation,omitempty"`
	Image      string  `json:"image,omitempty"`
	// Latency summarizes the request histograms by surface; surfaces
	// with no observations are omitted, so a freshly started daemon's
	// JSON is exactly the pre-telemetry shape plus identity fields.
	Latency map[string]latencySummary `json:"latency,omitempty"`
}

func (d *daemon) snapshot() statsSnapshot {
	db := d.store.DB()
	s := db.Stats()
	var loadedAt time.Time
	if t := d.loadedAt.Load(); t != nil {
		loadedAt = *t
	}
	snap := statsSnapshot{
		Routes:     db.Len(),
		Swaps:      d.swaps.Load(),
		LoadedAt:   loadedAt,
		Lookups:    s.Lookups,
		Resolves:   s.Resolves,
		Hits:       s.Hits,
		SuffixHits: s.SuffixHits,
		Misses:     s.Misses,
		Version:    d.version,
		UptimeSecs: time.Since(d.started).Seconds(),
		Image:      d.imagePath,
	}
	if w := d.mw; w != nil {
		snap.Generation = w.eng.Generation()
		ws := w.whatif.Stats()
		snap.WhatIf = &ws
		snap.Vantages = w.residentCounts()
	}
	if d.metrics != nil {
		lat := make(map[string]latencySummary)
		for name, h := range map[string]*obs.Histogram{
			"line":           d.metrics.line,
			"http_route":     d.metrics.httpRoute,
			"http_routes":    d.metrics.httpRoutes,
			"whatif":         d.metrics.whatifReq,
			"overlay_cold":   d.metrics.overlayCold,
			"overlay_cached": d.metrics.overlayCached,
		} {
			if sum, ok := summarize(h); ok {
				lat[name] = sum
			}
		}
		if len(lat) > 0 {
			snap.Latency = lat
		}
	}
	return snap
}

func (d *daemon) statsLine() string {
	s := d.snapshot()
	line := fmt.Sprintf("routes=%d swaps=%d lookups=%d resolves=%d hits=%d suffix_hits=%d misses=%d",
		s.Routes, s.Swaps, s.Lookups, s.Resolves, s.Hits, s.SuffixHits, s.Misses)
	if s.WhatIf != nil {
		line += fmt.Sprintf(" whatif_hits=%d whatif_misses=%d whatif_evictions=%d whatif_resident=%d whatif_warm_runs=%d whatif_full_runs=%d vantages=%d",
			s.WhatIf.Hits, s.WhatIf.Misses, s.WhatIf.Evictions, s.WhatIf.Resident,
			s.WhatIf.WarmRuns, s.WhatIf.FullRuns, len(s.Vantages))
	}
	// Latency joins the line only once sampled, keeping the historical
	// exact line shape for fresh daemons (and the tests that pin it).
	if d.metrics != nil {
		if n := d.metrics.line.Count(); n > 0 {
			line += fmt.Sprintf(" line_reqs=%d line_p50=%s line_p99=%s", n,
				d.metrics.line.Quantile(0.50).Round(time.Microsecond),
				d.metrics.line.Quantile(0.99).Round(time.Microsecond))
		}
	}
	return line
}

// handler builds the HTTP mux: GET /route?dest=...&user=..., POST
// /routes (bulk), POST /whatif (overlay queries as JSON), /stats,
// /metrics (Prometheus text), /healthz (liveness), /readyz
// (readiness), /lastmap (re-map traces, -map mode).
func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /route", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		q := r.URL.Query()
		dest, user := q.Get("dest"), cmp.Or(q.Get("user"), "%s")
		if overlay := q.Get("overlay"); overlay != "" && dest != "" {
			req := whatifReq{Op: "resolve", From: q.Get("from"), Overlay: overlay, Dest: dest, User: user}
			ans, err := d.whatif(surfaceRoute, r.URL.RawQuery, start, req, nil)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, ans)
			return
		}
		defer d.observe(surfaceRoute, r.URL.RawQuery, start)
		if dest == "" {
			http.Error(w, "missing dest parameter", http.StatusBadRequest)
			return
		}
		store, err := d.storeFor([]byte(q.Get("from")))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := store.Resolve(dest, user)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, res.Address())
	})
	// POST /whatif evaluates one overlay query and returns the full
	// structured answer — the line protocol's explain/impact replies are
	// the compact rendering of the same objects. Request body:
	//
	//	{"op": "resolve"|"explain"|"impact",
	//	 "from": "host", "overlay": "dead a b; cost a c 300",
	//	 "dest": "host", "user": "lou"}
	mux.HandleFunc("POST /whatif", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var q whatifReq
		var usage error
		if err := json.NewDecoder(io.LimitReader(r.Body, maxLineLen)).Decode(&q); err != nil {
			usage = fmt.Errorf("bad request body: %v", err)
		}
		q.User = cmp.Or(q.User, "%s")
		desc := "" // for the slow-query log
		if d.slowThresh > 0 {
			desc = fmt.Sprintf("op=%s from=%s overlay=%q dest=%s", q.Op, q.From, q.Overlay, q.Dest)
		}
		ans, err := d.whatif(surfaceWhatif, desc, start, q, usage)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if addr, ok := ans.(string); ok {
			ans = map[string]string{"address": addr}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ans)
	})
	// POST /routes is the bulk/batch framing for HTTP clients: the body
	// carries one request per line — "[from=host] dest [user]", the
	// line protocol's resolve form — and the response carries one
	// "ok ..."/"err ..." line per request, in order. One HTTP round
	// trip resolves the whole batch through the same zero-copy path as
	// the pipelined line protocol. The stats, trace and quit commands are
	// not special here: those lines are resolves, whatever whitespace
	// separates their fields.
	mux.HandleFunc("POST /routes", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		nreq := 0
		st := linePool.Get().(*lineState)
		defer linePool.Put(st)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		br := bufio.NewReaderSize(r.Body, connBufSize)
		bw := bufio.NewWriterSize(w, connBufSize)
		for {
			line, tooLong, err := readLine(br, st)
			switch {
			case tooLong:
				bw.WriteString("err line too long\n")
			case err == nil:
				st.out, _ = d.handleLine(st.out[:0], line, st, false)
				nreq++
				bw.Write(st.out)
				bw.WriteByte('\n')
			}
			if err != nil {
				break
			}
		}
		bw.Flush()
		// The whole body is one batch: requests per bulk call are
		// indistinguishable to the client, so the batch mean is the
		// honest per-request number (same accounting as the pipelined
		// line protocol).
		if d.metrics != nil && nreq > 0 {
			d.metrics.httpRoutes.ObserveBatch(time.Since(start), nreq)
		}
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(d.snapshot())
	})
	if d.metrics != nil {
		mux.Handle("GET /metrics", d.metrics.reg.Handler())
	}
	// /healthz is liveness: the process is up and answering. /readyz is
	// readiness: the daemon is serving the map it was asked to serve —
	// 503 while a warm start's first computation is still running, and
	// 503 while the store is demoted to a predecessor because the
	// newest image failed its background audit. A balancer draining on
	// /readyz keeps traffic on healthy peers through both windows
	// without killing a process that is still correctly serving its
	// fallback.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if _, err := d.gate(nil); err != nil { // only while warming up
			http.Error(w, "warming up: serving the last published image while the first map computation runs",
				http.StatusServiceUnavailable)
			return
		}
		if d.demoted.Load() {
			http.Error(w, "demoted: the served image failed deep verification; serving its predecessor",
				http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	// /lastmap exposes the re-map pipeline traces: the newest
	// generation by default, the most recent ?n= as a newest-first
	// array.
	mux.HandleFunc("GET /lastmap", func(w http.ResponseWriter, r *http.Request) {
		if d.traces == nil {
			http.Error(w, errTraceMode.Error(), http.StatusNotFound)
			return
		}
		if nStr := r.URL.Query().Get("n"); nStr != "" {
			n, err := strconv.Atoi(nStr)
			if err != nil || n < 1 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(d.traces.Recent(n))
			return
		}
		t := d.traces.Last()
		if t == nil {
			http.Error(w, "no re-map generation recorded yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(t)
	})
	return mux
}

// httpServer builds the daemon's http.Server. The timeouts keep one
// slow or stalled client from pinning a goroutine (and its buffers)
// forever: a peer must finish its request header within
// ReadHeaderTimeout, and an idle keep-alive connection is closed after
// IdleTimeout. No overall write timeout: a large bulk response to a
// slow reader is legitimate.
func (d *daemon) httpServer() *http.Server {
	return &http.Server{
		Handler:           d.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveHTTP runs the HTTP endpoints until ctx is done.
func (d *daemon) serveHTTP(ctx context.Context, ln net.Listener) {
	srv := d.httpServer()
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		d.warnf("http: %v", err)
	}
}
