package pathalias

// The incremental engine: the library's live-service mode. Run and
// RunFiles are batch one-shots; a MultiEngine keeps the
// parse→graph→map pipeline resident so successive Update calls over a
// slowly-mutating map set cost only the delta (see internal/remap). A
// routed deployment tracks map edits in milliseconds instead of
// re-mapping the world.
//
// One engine answers from any number of vantage points. The paper's
// mailrouter scenario wants the route between arbitrary host pairs, not
// just from one LocalHost; a MultiEngine answers it by keeping ONE
// fragment cache, ONE journaled graph, and ONE CSR snapshot, shared by
// per-vantage mapping machines with per-source result caches. Each
// vantage's output is byte-identical to a fresh single-source Run with
// that LocalHost (the cross-vantage equivalence suite in internal/remap
// holds this), and a source edit costs one delta parse plus one warm
// re-map per resident vantage. A single-source engine is a MultiEngine
// with Options.LocalHost set, read through Result.

import (
	"fmt"
	"sync"

	"pathalias/internal/core"
	"pathalias/internal/remap"
)

// MultiEngine recomputes routes incrementally from any number of
// vantage hosts over one shared map. Create one with NewMultiEngine,
// feed it complete input sets with Update, and read any vantage's
// routes with ResultFrom (or query pairs with ResolvePairs).
//
// A MultiEngine is safe for concurrent use: ResultFrom, ResolvePairs,
// Vantages, and Stats may run from any number of goroutines; Update
// excludes them while the shared state moves. Results are immutable
// snapshots and stable indefinitely, as the engine's route rows are: a
// Result may be retained across any number of updates.
type MultiEngine struct {
	opts Options
	eng  *remap.Multi

	// converted caches the public view of each vantage's latest engine
	// result, keyed by the engine Result's identity (a recompute always
	// allocates a fresh one), so cache-served queries — ResolvePairs
	// batches above all — skip the O(routes) copy.
	convMu    sync.Mutex
	converted map[string]convCache
}

type convCache struct {
	src *remap.Result
	res *Result
}

// NewMultiEngine returns a multi-vantage engine. Unlike Run,
// opts.LocalHost is optional: when set it names a default vantage that
// is computed eagerly on every Update and never evicted; other vantages
// spin up lazily on first query and are evicted least-recently-used
// beyond opts.MaxVantages.
//
// The first Update is a full build; later Updates re-scan only changed
// inputs and re-map only the affected part of the network. Routes,
// Warnings, and Unreachable are byte-identical to a from-scratch Run
// over the same inputs after every Update.
//
// Of a Result's Stats fields, the mapping-side counters are populated:
// Reached, BackLinked, and Penalized always describe the full current
// map, while Extractions and Relaxations count only the work the
// vantage's last recompute actually performed (a warm update re-relaxes
// just the dirty region, which is the point). The parse-side counters —
// Hosts, Nets, Domains, Links — stay zero: restating the whole graph is
// exactly the work a warm update avoids; use Run for a one-shot census.
func NewMultiEngine(opts Options) (*MultiEngine, error) {
	eng, err := remap.NewMulti(config(opts))
	if err != nil {
		return nil, err
	}
	return &MultiEngine{opts: opts, eng: eng, converted: make(map[string]convCache)}, nil
}

// Update brings the engine to the given input set — always the complete
// set, not a delta — and recomputes every resident vantage. On error the
// previous results keep serving. A vantage whose host vanished from the
// map does not fail the update; its error surfaces on ResultFrom.
func (e *MultiEngine) Update(inputs ...Input) error {
	rins := make([]remap.Input, len(inputs))
	for i, in := range inputs {
		rins[i] = remap.Input{Name: in.Name, Src: in.Text}
	}
	return e.update(rins)
}

// UpdateFiles reads the named files into memory and updates from them.
// Files may be saved in place or replaced by rename: nothing the engine
// keeps aliases a file, so a save that races the read costs at most one
// update over torn content, which the next UpdateFiles corrects.
func (e *MultiEngine) UpdateFiles(paths ...string) error {
	ins, err := core.ReadInputs(paths)
	if err != nil {
		return err
	}
	return e.update(ins)
}

// update runs the engine's Update, which recomputes the default
// vantage, then its Refresh, which recomputes the other resident ones.
func (e *MultiEngine) update(ins []remap.Input) error {
	if err := e.eng.Update(ins); err != nil {
		return err
	}
	e.eng.Refresh()
	return nil
}

// ResultFrom returns the routes originating at the given vantage host,
// computing (or catching up) that vantage over the shared map if it is
// not already resident. The result is byte-identical to a fresh Run
// with LocalHost = from over the current inputs.
func (e *MultiEngine) ResultFrom(from string) (*Result, error) {
	r, err := e.eng.ResultFor(from)
	if err != nil {
		return nil, err
	}
	key := e.eng.Fold(from)
	e.convMu.Lock()
	defer e.convMu.Unlock()
	if c, ok := e.converted[key]; ok && c.src == r {
		return c.res, nil
	}
	opts := e.opts
	opts.LocalHost = from
	res := convertResult(opts, r)
	if len(e.converted) >= convCacheMax {
		// Drop conversions of vantages the engine has evicted (cache
		// keys are the engine's own folded vantage names).
		live := make(map[string]bool)
		for _, v := range e.eng.Vantages() {
			live[v] = true
		}
		for k := range e.converted {
			if !live[k] {
				delete(e.converted, k)
			}
		}
	}
	e.converted[key] = convCache{src: r, res: res}
	return res, nil
}

// convCacheMax bounds the converted-result cache; reaching it prunes
// entries for evicted vantages (the engine's own vantage cap keeps the
// live set below this in any sane configuration).
const convCacheMax = 512

// Result returns the default vantage's routes (opts.LocalHost). It
// errors when the engine was built without a LocalHost.
func (e *MultiEngine) Result() (*Result, error) {
	if e.opts.LocalHost == "" {
		return nil, fmt.Errorf("pathalias: MultiEngine has no default vantage (Options.LocalHost empty)")
	}
	return e.ResultFrom(e.opts.LocalHost)
}

// Pair names one route query between two hosts.
type Pair struct {
	From string // vantage host the route originates at
	To   string // destination host
}

// PairRoute is one pair's outcome from ResolvePairs.
type PairRoute struct {
	Pair
	Route Route // valid when Err is nil
	Err   error
}

// ResolvePairs computes routes between arbitrary host pairs — the
// mailrouter question asked in bulk. Pairs are grouped by vantage so
// each vantage is computed (or served from cache) once regardless of
// how many destinations it is asked for; destinations are answered with
// the vantage Result's indexed exact-match Lookup. An unknown vantage
// or destination carries its error in the corresponding PairRoute
// rather than failing the batch. Results are in input order.
func (e *MultiEngine) ResolvePairs(pairs []Pair) []PairRoute {
	out := make([]PairRoute, len(pairs))
	type group struct {
		res *Result
		err error
	}
	byFrom := make(map[string]*group)
	for i, p := range pairs {
		out[i].Pair = p
		g := byFrom[p.From]
		if g == nil {
			g = &group{}
			g.res, g.err = e.ResultFrom(p.From)
			byFrom[p.From] = g
		}
		if g.err != nil {
			out[i].Err = g.err
			continue
		}
		rt, ok := g.res.Lookup(p.To)
		if !ok {
			out[i].Err = fmt.Errorf("pathalias: no route from %q to %q", p.From, p.To)
			continue
		}
		out[i].Route = rt
	}
	return out
}

// Vantages returns the resident vantage host names, sorted.
func (e *MultiEngine) Vantages() []string { return e.eng.Vantages() }

// Stats returns engine activity counters. Incremental and FullRemaps
// count per-vantage mapping runs.
func (e *MultiEngine) Stats() EngineStats { return EngineStats(e.eng.Stats()) }

// EngineStats count engine activity across updates.
type EngineStats struct {
	Updates      int // Update calls that did work
	Unchanged    int // Update calls with identical inputs
	Incremental  int // warm-path vantage re-maps
	FullRemaps   int // full vantage re-maps over the patched graph
	Rebuilds     int // full rebuilds (first run, reorders, parse errors)
	Rescanned    int // inputs re-scanned
	RangePatches int // changed files patched by statement range
	// BytesRescanned counts the source bytes the re-scans scanned: the
	// window around each edit, or the whole input where one was new or
	// could not be re-scanned in part.
	BytesRescanned int
	// StmtsReplayed counts the statements the engine applied plus those
	// it undid, summed over the updates.
	StmtsReplayed int
	// RowsRebuilt counts the CSR snapshot rows rebuilt from the graph's
	// adjacency lists rather than copied, summed over the updates.
	RowsRebuilt int
}

// convertResult translates an incremental-engine result into the public
// shape.
func convertResult(opts Options, r *remap.Result) *Result {
	res := newResult(opts, r.Entries, r.Warnings, r.Unreachable)
	res.RouteGen = r.RouteGen
	res.Stats.Reached = r.Reached
	res.Stats.BackLinked = r.BackLinked
	res.Stats.Penalized = r.Penalized
	res.Stats.Extractions = r.Extractions
	res.Stats.Relaxations = r.Relaxations
	return res
}
