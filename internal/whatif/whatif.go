package whatif

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pathalias/internal/graph"
	"pathalias/internal/remap"
	"pathalias/internal/routedb"
	"pathalias/internal/whatif/diff"
)

// Options configure an Evaluator.
type Options struct {
	// MaxCached bounds the LRU of evaluated overlays. Each holds a
	// mapper machine's labels and a route store; the stores of one
	// generation and vantage share one route index while their host
	// columns agree. 0 means DefaultMaxCached.
	MaxCached int
	// Observe, when set, is called once per overlay evaluation with
	// whether it missed the cache (cold — a private mapping run) and how
	// long it took. The serving layer points this at its latency
	// histograms; the evaluator itself keeps only the counters.
	Observe func(cold bool, d time.Duration)
}

// DefaultMaxCached is the default overlay cache capacity.
const DefaultMaxCached = 32

// Evaluator answers what-if queries against one remap.Multi. It is safe
// for concurrent use; evaluations run under the engine's read lock and
// never mutate the base graph, snapshot, or any serving state.
//
// Evaluated overlays are cached in an LRU keyed by (engine generation,
// vantage host, canonical spec) — the canonical rendering makes
// differently-written but identical specs share an entry, and the
// generation key makes a base-map update invalidate everything without
// coordination. Entries from older generations are swept as newer ones
// are inserted.
type Evaluator struct {
	eng  *remap.Multi
	opts Options

	mu     sync.Mutex
	lru    *list.List // of *cacheEntry, front = most recently used
	byKey  map[evalKey]*list.Element
	flight map[evalKey]*flightCall

	hits, misses, evictions atomic.Uint64
	warmRuns, fullRuns      atomic.Uint64
}

type evalKey struct {
	gen  uint64
	from string
	spec string // canonical; "" is the base (no-edit) evaluation
}

type cacheEntry struct {
	key evalKey
	run *remap.OverlayRun
	db  *routedb.DB
}

type flightCall struct {
	done chan struct{}
	ent  *cacheEntry
	err  error
}

// Stats is a point-in-time snapshot of the evaluator's counters.
// WarmRuns and FullRuns split the mapping runs (cache misses that
// mapped) by how they started: from the resident vantage's solved tree,
// or from scratch — a vantage that is not resident, or edits that
// disturb too much of the tree for a warm run to pay.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Resident  int    `json:"resident"` // cached overlay machines
	WarmRuns  uint64 `json:"warm_runs"`
	FullRuns  uint64 `json:"full_runs"`
}

// New returns an evaluator over eng.
func New(eng *remap.Multi, opts Options) *Evaluator {
	if opts.MaxCached <= 0 {
		opts.MaxCached = DefaultMaxCached
	}
	return &Evaluator{
		eng:    eng,
		opts:   opts,
		lru:    list.New(),
		byKey:  make(map[evalKey]*list.Element),
		flight: make(map[evalKey]*flightCall),
	}
}

// Stats returns the current counters.
func (ev *Evaluator) Stats() Stats {
	ev.mu.Lock()
	resident := ev.lru.Len()
	ev.mu.Unlock()
	return Stats{
		Hits:      ev.hits.Load(),
		Misses:    ev.misses.Load(),
		Evictions: ev.evictions.Load(),
		Resident:  resident,
		WarmRuns:  ev.warmRuns.Load(),
		FullRuns:  ev.fullRuns.Load(),
	}
}

// parse parses a non-empty spec and folds its host names as the engine
// does.
func (ev *Evaluator) parse(spec string) (*Spec, error) {
	sp, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	sp.fold(ev.eng.Fold)
	return sp, nil
}

// compile resolves a spec's host names against the live graph view and
// builds the overlay. Called inside EvalOverlay, under the read lock.
func compile(sp *Spec, ctx remap.OverlayCtx) (*graph.Overlay, error) {
	ov := graph.NewOverlay()
	for _, ed := range sp.Edits {
		from, ok := ctx.Lookup(ed.From)
		if !ok {
			return nil, fmt.Errorf("whatif: unknown host %q", ed.From)
		}
		to, ok := ctx.Lookup(ed.To)
		if !ok {
			return nil, fmt.Errorf("whatif: unknown host %q", ed.To)
		}
		l := ctx.FindLink(from, to)
		if l != nil && l.Flags&graph.LDeleted != 0 && ed.Op != OpDead {
			// The map's own delete{} keeps the declaration registered but
			// out of every snapshot: an override would never apply, and a
			// new link would shadow the map's deletion.
			return nil, fmt.Errorf("whatif: link %s!%s is deleted in the map", ed.From, ed.To)
		}
		switch ed.Op {
		case OpDead, OpCost:
			if l == nil {
				return nil, fmt.Errorf("whatif: no link %s!%s", ed.From, ed.To)
			}
			if ed.Op == OpDead {
				ov.RemoveLink(l)
			} else {
				ov.OverrideCost(l, ed.Cost)
			}
		case OpLink:
			if l != nil {
				return nil, fmt.Errorf("whatif: link %s!%s already exists (use cost to override)", ed.From, ed.To)
			}
			ov.AddLink(from, to, ed.Cost, graph.DefaultOp)
		}
	}
	return ov, nil
}

// eval returns the cached evaluation of (from, sp) at the current
// generation, mapping it on a miss. sp == nil is the base evaluation.
// With Options.Observe set, every call reports (cold, duration) — cold
// meaning this call ran a mapping pass rather than being answered from
// the cache or a concurrent in-flight evaluation.
func (ev *Evaluator) eval(from string, sp *Spec) (*cacheEntry, error) {
	if ev.opts.Observe == nil {
		ent, _, err := ev.evalCold(from, sp)
		return ent, err
	}
	start := time.Now()
	ent, cold, err := ev.evalCold(from, sp)
	ev.opts.Observe(cold, time.Since(start))
	return ent, err
}

// evalCold is eval reporting whether this call ran a mapping pass
// (cold) rather than being answered from the cache or a concurrent
// in-flight evaluation. A retry after a cross-update race stays cold.
func (ev *Evaluator) evalCold(from string, sp *Spec) (ent *cacheEntry, cold bool, err error) {
	from = ev.eng.Fold(from)
	canon := ""
	if sp != nil {
		canon = sp.Canonical()
	}
	for {
		key := evalKey{gen: ev.eng.Generation(), from: from, spec: canon}
		ev.mu.Lock()
		if el, ok := ev.byKey[key]; ok {
			ev.lru.MoveToFront(el)
			ent := el.Value.(*cacheEntry)
			ev.mu.Unlock()
			ev.hits.Add(1)
			return ent, cold, nil
		}
		if fc, ok := ev.flight[key]; ok {
			// Identical evaluation in progress: wait for it rather than
			// mapping twice. Counts as a hit — no second mapping pass.
			ev.mu.Unlock()
			<-fc.done
			if fc.err != nil {
				return nil, cold, fc.err
			}
			ev.hits.Add(1)
			return fc.ent, cold, nil
		}
		fc := &flightCall{done: make(chan struct{})}
		ev.flight[key] = fc
		ev.mu.Unlock()

		cold = true
		ent, err := ev.evalMiss(key, from, sp)
		fc.ent, fc.err = ent, err
		ev.mu.Lock()
		delete(ev.flight, key)
		ev.mu.Unlock()
		close(fc.done)
		if err != nil {
			return nil, cold, err
		}
		if ent.key == key {
			return ent, cold, nil
		}
		// The engine updated between the Generation probe and the
		// evaluation; the result was cached under its true generation.
		// Retry the lookup so callers always get a current-generation
		// answer (the loop converges as soon as a probe and the eval see
		// the same generation).
	}
}

// evalMiss maps one overlay evaluation and inserts it into the cache
// under the generation the run actually happened at.
func (ev *Evaluator) evalMiss(probe evalKey, from string, sp *Spec) (*cacheEntry, error) {
	ev.misses.Add(1)
	var build func(remap.OverlayCtx) (*graph.Overlay, error)
	if sp != nil {
		build = func(ctx remap.OverlayCtx) (*graph.Overlay, error) { return compile(sp, ctx) }
	}
	run, err := ev.eng.EvalOverlay(from, build)
	if err != nil {
		return nil, err
	}
	if run.Warm {
		ev.warmRuns.Add(1)
	} else {
		ev.fullRuns.Add(1)
	}
	ent := &cacheEntry{
		key: evalKey{gen: run.Gen, from: run.Host, spec: probe.spec},
		run: run,
		db:  ev.store(run),
	}
	ev.mu.Lock()
	ev.insertLocked(ent)
	ev.mu.Unlock()
	return ent, nil
}

// store indexes run's routes. Questions from one vantage at one
// generation nearly always route the same hosts (an edit moves routes,
// not names), so when the cache holds an entry of run's generation and
// vantage, the store is built With that entry's and shares its slot
// table and suffix trie. resolver.Resolver.With falls back to a full
// build when the host names differ, so the store answers as
// routedb.BuildWith's would either way.
func (ev *Evaluator) store(run *remap.OverlayRun) *routedb.DB {
	opts := routedb.Options{FoldCase: ev.eng.FoldCase()}
	var sib *routedb.DB
	ev.mu.Lock()
	for el := ev.lru.Front(); el != nil; el = el.Next() {
		if c := el.Value.(*cacheEntry); c.key.gen == run.Gen && c.key.from == run.Host {
			sib = c.db
			break
		}
	}
	ev.mu.Unlock()
	if sib == nil {
		return routedb.BuildWith(run.Entries, opts)
	}
	return sib.With(run.Entries, opts)
}

// insertLocked adds ent, evicting LRU overflow and sweeping entries from
// older generations (their machines can never be used again).
func (ev *Evaluator) insertLocked(ent *cacheEntry) {
	if el, ok := ev.byKey[ent.key]; ok {
		// A concurrent evaluation of the same key won the race; keep the
		// resident entry and let this one be garbage.
		ev.lru.MoveToFront(el)
		return
	}
	ev.byKey[ent.key] = ev.lru.PushFront(ent)
	var stale []*list.Element
	for el := ev.lru.Back(); el != nil; el = el.Prev() {
		if el.Value.(*cacheEntry).key.gen < ent.key.gen {
			stale = append(stale, el)
		}
	}
	for _, el := range stale {
		ev.removeLocked(el)
	}
	for ev.lru.Len() > ev.opts.MaxCached {
		ev.removeLocked(ev.lru.Back())
	}
}

func (ev *Evaluator) removeLocked(el *list.Element) {
	ev.lru.Remove(el)
	delete(ev.byKey, el.Value.(*cacheEntry).key)
	ev.evictions.Add(1)
}

// Resolve answers one destination under an overlay: the address dest/user
// would resolve to if the spec's edits were applied to the map.
func (ev *Evaluator) Resolve(from, spec, dest, user string) (string, error) {
	sp, err := ev.parse(spec)
	if err != nil {
		return "", err
	}
	ent, err := ev.eval(from, sp)
	if err != nil {
		return "", err
	}
	res, err := ent.db.Resolve(dest, user)
	if err != nil {
		return "", err
	}
	return res.Address(), nil
}

// Impact is a live impact report: every host whose route from the
// vantage changes under the overlay, as a routediff-style change list.
type Impact struct {
	Gen     uint64        `json:"gen"`     // engine generation both sides were mapped at
	From    string        `json:"from"`    // vantage host (folded)
	Spec    string        `json:"spec"`    // canonical overlay spec
	Routes  int           `json:"routes"`  // base route count
	Changed []diff.Change `json:"changed"` // ordered by host
	Stats   diff.Stats    `json:"stats"`
}

// ImpactOf evaluates the overlay and diffs its routing table against the
// base table at the same generation.
func (ev *Evaluator) ImpactOf(from, spec string) (*Impact, error) {
	sp, err := ev.parse(spec)
	if err != nil {
		return nil, err
	}
	// Both sides must come from the same generation for the diff to mean
	// "the overlay's effect" rather than "the overlay plus whatever the
	// last map edit did". Updates are rare on query timescales, so
	// retrying on a cross-update race converges immediately.
	for attempt := 0; ; attempt++ {
		base, err := ev.eval(from, nil)
		if err != nil {
			return nil, err
		}
		over, err := ev.eval(from, sp)
		if err != nil {
			return nil, err
		}
		if base.run.Gen != over.run.Gen {
			if attempt < 3 {
				continue
			}
			return nil, fmt.Errorf("whatif: map updating too fast for a consistent impact report")
		}
		changes := diff.Diff(base.db.Entries(), over.db.Entries())
		return &Impact{
			Gen:     base.run.Gen,
			From:    base.run.Host,
			Spec:    sp.Canonical(),
			Routes:  len(base.db.Entries()),
			Changed: changes,
			Stats:   diff.Summarize(changes),
		}, nil
	}
}
