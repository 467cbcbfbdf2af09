// Package pathalias computes electronic mail routes in environments that
// mix explicit and implicit routing, as well as syntax styles.
//
// It is a complete Go implementation of the system described in Peter
// Honeyman and Steven M. Bellovin, "PATHALIAS or The Care and Feeding of
// Relative Addresses" (Proc. Summer USENIX Conference, 1986). Given a
// textual description of a network's connectivity — hosts, links with
// symbolic costs, networks, domains, aliases, private hosts — it produces
// a least-cost route to every known destination as a printf-style format
// string:
//
//	res, err := pathalias.RunString(pathalias.Options{LocalHost: "unc"}, `
//	unc    duke(HOURLY), phs(HOURLY*4)
//	duke   unc(DEMAND), research(DAILY/2), phs(DEMAND)
//	`)
//	// res.Routes[1] == {Host: "duke", Format: "duke!%s", Cost: 500}
//
// The resulting routes can be packed into a Database for the lookups a
// delivery agent performs, including the paper's domain-suffix search.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper.
package pathalias

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"

	"pathalias/internal/core"
	"pathalias/internal/cost"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
	"pathalias/internal/resolver"
	"pathalias/internal/routedb"
)

// Input is one named map source. The name matters: private declarations
// scope to the file that made them.
type Input struct {
	Name string
	Text string
}

// Options configure a run. The zero value is NOT runnable: LocalHost is
// required.
type Options struct {
	// LocalHost is the host routes originate from (required).
	LocalHost string

	// PrintCosts includes path costs in WriteRoutes output, and
	// SortByCost lists Routes and WriteRoutes cheapest first (ties by
	// name), as in the paper's example output, not in name order; Lookup
	// and NewDatabase are the same either way.
	PrintCosts bool
	SortByCost bool
	// DomainsOnly restricts output to top-level domains.
	DomainsOnly bool

	// SecondBest enables the paper's experimental domain-aware
	// second-best route selection.
	SecondBest bool
	// NoBackLinks disables the invention of reverse links for
	// unreachable hosts.
	NoBackLinks bool
	// Avoid lists hosts to route around when possible.
	Avoid []string
	// IgnoreCase folds host names to lower case (-i).
	IgnoreCase bool
	// FirstHopCost reports the cost of the first hop instead of the full
	// path cost (-f).
	FirstHopCost bool

	// Penalty overrides; zero means the documented default.
	MixedPenalty       int64
	GatewayPenalty     int64
	DomainRelayPenalty int64
	DeadPenalty        int64

	// MaxVantages caps how many vantage machines a MultiEngine keeps
	// resident (least-recently-used eviction; the LocalHost vantage is
	// never evicted). 0 means 64. Ignored everywhere else.
	MaxVantages int
}

// Route is one computed route: a reachable name and the format string
// that reaches it, with %s marking where the user name goes.
type Route struct {
	Host   string
	Format string
	Cost   int64
}

// Address substitutes a user name into the route, yielding a complete
// address.
func (r Route) Address(user string) string {
	return strings.Replace(r.Format, "%s", user, 1)
}

// Stats summarize what a run saw and did.
type Stats struct {
	Hosts       int
	Nets        int
	Domains     int
	Links       int
	Reached     int
	BackLinked  int
	Penalized   int
	Extractions int64
	Relaxations int64
}

// Result is a completed run.
//
// A Result is safe for concurrent readers once Run returns: Lookup,
// WriteRoutes, and NewDatabase may be called from any number of
// goroutines, provided no caller mutates the exported slices.
// WriteRoutes and NewDatabase work from the routes as computed, not
// from the Routes slice.
type Result struct {
	Routes      []Route
	Warnings    []string
	Unreachable []string
	Stats       Stats

	// RouteGen is the vantage's route-set generation counter from a
	// MultiEngine: it advances only when a recomputation may have changed
	// the routes, so a consumer holding the previous Result's RouteGen — a
	// watcher deciding whether to republish a compiled database — can
	// skip identical outputs without diffing them. Zero for results from
	// the batch Run, which has no generation to compare against.
	RouteGen uint64

	opts    Options
	entries []printer.Entry // the routes in name order; never written
}

// Run parses the inputs and computes routes from opts.LocalHost.
func Run(opts Options, inputs ...Input) (*Result, error) {
	if opts.LocalHost == "" {
		return nil, fmt.Errorf("pathalias: Options.LocalHost is required")
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("pathalias: no inputs")
	}
	pins := make([]parser.Input, len(inputs))
	for i, in := range inputs {
		pins[i] = parser.Input{Name: in.Name, Src: in.Text}
	}
	rep, err := core.Run(config(opts), pins...)
	if err != nil {
		return nil, err
	}
	return buildResult(opts, rep), nil
}

// RunString runs over a single in-memory map.
func RunString(opts Options, mapText string) (*Result, error) {
	return Run(opts, Input{Name: "<string>", Text: mapText})
}

// RunFiles loads the named files and runs over them.
func RunFiles(opts Options, paths ...string) (*Result, error) {
	ins, err := core.ReadInputs(paths)
	if err != nil {
		return nil, err
	}
	ginputs := make([]Input, len(ins))
	for i, in := range ins {
		ginputs[i] = Input{Name: in.Name, Text: string(in.Src)}
	}
	return Run(opts, ginputs...)
}

func buildResult(opts Options, rep *core.Report) *Result {
	res := newResult(opts, rep.Entries, rep.Warnings, rep.Unreachable)
	gs := rep.Graph.Stats()
	res.Stats = Stats{
		Hosts:   gs.Hosts,
		Nets:    gs.Nets,
		Domains: gs.Domains,
		Links:   gs.Links,
	}
	if mr := rep.MapResult; mr != nil {
		res.Stats.Reached = mr.Reached
		res.Stats.BackLinked = mr.BackLinked
		res.Stats.Penalized = mr.Penalized
		res.Stats.Extractions = mr.Extractions
		res.Stats.Relaxations = mr.Relaxations
	}
	return res
}

// config translates public Options into the pipeline configuration,
// for batch runs and the incremental engine alike.
func config(opts Options) core.Config {
	mopts := mapper.DefaultOptions()
	mopts.SecondBest = opts.SecondBest
	mopts.BackLinks = !opts.NoBackLinks
	if opts.MixedPenalty != 0 {
		mopts.MixedPenalty = cost.Cost(opts.MixedPenalty)
	}
	if opts.GatewayPenalty != 0 {
		mopts.GatewayPenalty = cost.Cost(opts.GatewayPenalty)
	}
	if opts.DomainRelayPenalty != 0 {
		mopts.DomainRelayPenalty = cost.Cost(opts.DomainRelayPenalty)
	}
	if opts.DeadPenalty != 0 {
		mopts.DeadPenalty = cost.Cost(opts.DeadPenalty)
	}
	return core.Config{
		LocalHost: opts.LocalHost,
		Mapper:    &mopts,
		Printer: printer.Options{
			DomainsOnly:  opts.DomainsOnly,
			FirstHopCost: opts.FirstHopCost,
		},
		Avoid:       opts.Avoid,
		FoldCase:    opts.IgnoreCase,
		MaxVantages: opts.MaxVantages,
	}
}

// listed returns name-ordered entries in the order Routes and
// WriteRoutes list them: cheapest first under SortByCost.
func listed(opts Options, entries []printer.Entry) []printer.Entry {
	if opts.SortByCost {
		return printer.ByCost(entries)
	}
	return entries
}

// newResult is the public view of a run's name-ordered entries, for Run
// and MultiEngine alike: Routes lists them as WriteRoutes does.
func newResult(opts Options, entries []printer.Entry, warnings, unreachable []string) *Result {
	listing := listed(opts, entries)
	rs := make([]Route, len(listing))
	for i, e := range listing {
		rs[i] = Route{Host: e.Host, Format: e.Route, Cost: int64(e.Cost)}
	}
	return &Result{Routes: rs, Warnings: warnings, Unreachable: unreachable, opts: opts, entries: entries}
}

// Lookup finds the route for an exact host name in O(log n), by binary
// search over the routes in name order. The query is normalized as a
// Database's Lookup normalizes it: one trailing dot dropped ("duke." is
// the absolute spelling of "duke") and, when the run used IgnoreCase,
// folded the same way the map was.
func (r *Result) Lookup(host string) (Route, bool) {
	host = resolver.NormalizeKey(host, r.opts.IgnoreCase)
	i, ok := slices.BinarySearchFunc(r.entries, host, func(e printer.Entry, h string) int {
		return strings.Compare(e.Host, h)
	})
	if !ok {
		return Route{}, false
	}
	e := r.entries[i]
	return Route{Host: e.Host, Format: e.Route, Cost: int64(e.Cost)}, true
}

// WriteRoutes emits the routes as the classic linear file: "host\tformat"
// lines, or "cost\thost\tformat" when Options.PrintCosts is set.
func (r *Result) WriteRoutes(w io.Writer) error {
	_, err := routedb.WriteText(w, listed(r.opts, r.entries), r.opts.PrintCosts)
	return err
}

// Database is a queryable route database built from a run's routes, with
// the paper's exact-then-domain-suffix resolution procedure. Exact
// matches are answered from a hash index and suffix matches from a
// reversed-label trie, so a resolve is O(labels), not O(log n) per
// candidate suffix.
//
// A Database is immutable and safe for concurrent use: any number of
// goroutines may call Lookup, Resolve, ResolveBatch, Stats, and WriteTo
// simultaneously with no external locking.
type Database struct {
	db *routedb.DB
}

// NewDatabase packs the result's routes for rapid retrieval. A result
// computed with IgnoreCase yields a case-folding database, so queries in
// any case hit the folded names.
func (r *Result) NewDatabase() *Database {
	return &Database{db: routedb.BuildWith(r.entries, routedb.Options{FoldCase: r.opts.IgnoreCase})}
}

// WriteDB compiles the result's routes straight into the binary route
// database format (the mmap-served rdb file that `routed -db` and
// `uupath -d` open with no parsing) — the map run's output and the
// serving format with no text round trip in between. The output is
// deterministic and records IgnoreCase in its header. Equivalent to
// r.NewDatabase() followed by Database.WriteBinary.
func (r *Result) WriteDB(w io.Writer) error {
	_, err := r.NewDatabase().WriteBinary(w)
	return err
}

// LoadDatabase reads a route database from a linear route file.
func LoadDatabase(rd io.Reader) (*Database, error) {
	db, err := routedb.Load(rd)
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}

// Len returns the number of routes in the database.
func (d *Database) Len() int { return d.db.Len() }

// Lookup finds an exact route.
func (d *Database) Lookup(host string) (Route, bool) {
	e, ok := d.db.Lookup(host)
	if !ok {
		return Route{}, false
	}
	return Route{Host: e.Host, Format: e.Route, Cost: int64(e.Cost)}, true
}

// Resolve routes user mail to dest, applying the domain-suffix search when
// there is no exact match: mail to caip.rutgers.edu!pleasant with only
// ".edu" in the database becomes seismo!caip.rutgers.edu!pleasant.
func (d *Database) Resolve(dest, user string) (string, error) {
	res, err := d.db.Resolve(dest, user)
	if err != nil {
		return "", err
	}
	return res.Address(), nil
}

// ResolveScratch holds the reusable buffers AppendResolve needs. A
// scratch is not safe for concurrent use: keep one per goroutine (or
// connection) and reuse it across calls.
type ResolveScratch struct {
	s routedb.Scratch
}

// AppendResolve is the allocation-free Resolve for serving hot paths:
// it appends the finished address for (dest, user) to dst and reports
// whether a route was found, with dst returned unchanged on a miss.
// The answer bytes are identical to Resolve's for every query; a
// steady-state call allocates nothing beyond amortized growth of dst
// and scratch.
func (d *Database) AppendResolve(dst []byte, dest, user []byte, s *ResolveScratch) ([]byte, bool) {
	return d.db.AppendResolve(dst, dest, user, &s.s)
}

// BatchResult is one destination's outcome from ResolveBatch.
type BatchResult struct {
	Dest    string
	Address string // complete address, "" on error
	Err     error
}

// resolveBatchParallelMin is the batch size at which ResolveBatch fans
// out across CPUs; below it the per-goroutine overhead isn't worth it.
const resolveBatchParallelMin = 512

// ResolveBatch resolves many destinations for one user in a single call,
// amortizing the per-call overhead and, for large batches, sharding the
// work across CPUs. Results are in destination order. Unroutable
// destinations carry their error in the corresponding BatchResult rather
// than failing the batch.
func (d *Database) ResolveBatch(user string, dests []string) []BatchResult {
	out := make([]BatchResult, len(dests))
	resolveRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i].Dest = dests[i]
			out[i].Address, out[i].Err = d.Resolve(dests[i], user)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if len(dests) < resolveBatchParallelMin || workers < 2 {
		resolveRange(0, len(dests))
		return out
	}
	if workers > len(dests) {
		workers = len(dests)
	}
	var wg sync.WaitGroup
	chunk := (len(dests) + workers - 1) / workers
	for lo := 0; lo < len(dests); lo += chunk {
		hi := min(lo+chunk, len(dests))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			resolveRange(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// DatabaseStats is a snapshot of a database's query counters.
type DatabaseStats struct {
	Lookups    uint64 // exact Lookup calls
	Resolves   uint64 // Resolve calls (ResolveBatch counts each dest)
	Hits       uint64 // resolves answered by an exact match
	SuffixHits uint64 // resolves answered by the domain-suffix trie
	Misses     uint64 // resolves with no route
}

// Stats returns a snapshot of the database's query counters. Counters
// are updated atomically and may be read while queries are in flight.
func (d *Database) Stats() DatabaseStats {
	s := d.db.Stats()
	return DatabaseStats{
		Lookups:    s.Lookups,
		Resolves:   s.Resolves,
		Hits:       s.Hits,
		SuffixHits: s.SuffixHits,
		Misses:     s.Misses,
	}
}

// WriteTo emits the database as a linear route file.
func (d *Database) WriteTo(w io.Writer) (int64, error) {
	return d.db.WriteTo(w)
}

// WriteBinary compiles the database into the binary rdb image — the
// format OpenDatabase, `routed -db`, and `uupath -d` serve memory-
// mapped with no parse (see internal/rdb for the layout).
func (d *Database) WriteBinary(w io.Writer) (int64, error) {
	return d.db.WriteBinary(w)
}

// Close releases a memory-mapped database's file mapping early instead
// of waiting for the garbage collector — useful when opening many
// compiled databases in sequence. It must not be called while queries
// are in flight; results already returned remain valid. A no-op for
// databases built in memory. Idempotent.
func (d *Database) Close() error { return d.db.Close() }

// OpenDatabase opens a route database file of either format, detected
// by its magic bytes: a compiled binary database is memory-mapped,
// validated, and served in place (its recorded fold-case setting
// applies); a linear text file is parsed and indexed. The returned
// Database's mapping, if any, is released when it becomes unreachable.
func OpenDatabase(path string) (*Database, error) {
	db, err := routedb.Open(path, routedb.Options{})
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}
