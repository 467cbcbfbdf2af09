package remap

// Multi serves many vantage points over one shared pipeline: one
// fragment cache, one journaled graph, one patched CSR snapshot, N
// mapper machines with per-source result caches. Where N
// independent engines would re-scan and re-patch the world N times, a
// Multi pays the parse/graph/snapshot cost once per update and only the
// mapping cost per vantage — and vantages touched rarely pay nothing
// until queried (results are recomputed lazily, catching up across the
// retained change history).

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Multi is a multi-vantage incremental engine. It is safe for
// concurrent use: queries (ResultFor) may run from any number of
// goroutines concurrently with each other; Update excludes them while
// the shared state moves. A Result is immutable once returned, its
// Entries included: the engine never writes a row array it has handed
// out, so a Result may be kept across any number of updates.
type Multi struct {
	mu   sync.RWMutex
	e    *core
	vans map[string]*vantage
	def  string // pinned default vantage ("" if none)
	tick atomic.Uint64

	// gen and stats are e.updGen and e.Stats as the last write-locked
	// section left them (publishLocked), so that Generation and Stats
	// never wait for an Update or a Refresh.
	gen   atomic.Uint64
	stats atomic.Pointer[EngineStats]
}

// NewMulti returns a multi-vantage engine. Options.LocalHost, when set,
// names a default vantage that is created eagerly and never evicted;
// other vantages spin up lazily per ResultFor and are evicted
// least-recently-used beyond Options.MaxVantages.
func NewMulti(opts Options) (*Multi, error) {
	e := newCore(opts)
	if opts.MaxVantages <= 0 {
		e.opts.MaxVantages = 64
	}
	m := &Multi{e: e, vans: make(map[string]*vantage)}
	if opts.LocalHost != "" {
		m.def = e.foldName(opts.LocalHost)
		m.vans[m.def] = newVantage(m.def)
	}
	m.publishLocked()
	return m, nil
}

// publishLocked makes the generation and counters the current locked
// section moved visible to Generation and Stats. Every write-locked
// section defers it, so it runs before the unlock.
func (m *Multi) publishLocked() {
	m.gen.Store(m.e.updGen)
	st := m.e.Stats
	m.stats.Store(&st)
}

// Update brings the shared state to the given input set — always the
// complete set, not a delta — and recomputes the pinned default vantage
// (Options.LocalHost), so a serving layer can swap its default store
// as soon as Update returns. Other resident vantages fall stale: Refresh
// recomputes them, and ResultFor catches up any that Refresh has not
// reached. Per-vantage mapping failures (a vantage host edited out of
// the map) do not fail the update; they surface on that vantage's
// ResultFor. An input set with syntax errors changes nothing and
// returns its *parser.ParseError; the same set again (compared byte for
// byte) returns that same error without a scan.
func (m *Multi) Update(inputs []Input) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.publishLocked()
	if err := m.e.sync(inputs); err != nil {
		return err
	}
	mark := time.Now()
	if v := m.vans[m.def]; v != nil && !m.cachedLocked(v) {
		res, recomputed, err := v.resolve(m.e)
		m.countRun(res, recomputed, err)
	}
	m.e.timing.Map = time.Since(mark)
	return nil
}

// Refresh walks the resident vantages other than the default in host
// order, on the calling goroutine, taking the engine lock for one
// vantage at a time: it recomputes the vantage if the last Update left
// it stale, unlocks, and calls fn with its result (or mapping error). A
// vantage evicted since the walk began is skipped. Refresh stamps no
// least-recently-used tick: eviction follows the queries. Its mapping
// work adds to Timing's MapSum, RouteSum and LabelsChanged and to the
// Stats counters, not to Timing's Map wall, which is Update's alone.
func (m *Multi) Refresh(fn func(host string, res *Result, err error)) {
	m.mu.RLock()
	hosts := make([]string, 0, len(m.vans))
	for n := range m.vans {
		if n != m.def {
			hosts = append(hosts, n)
		}
	}
	m.mu.RUnlock()
	sort.Strings(hosts)
	for _, h := range hosts {
		if res, ok, err := m.refreshOne(h); ok {
			fn(h, res, err)
		}
	}
}

// refreshOne brings one vantage up to date under the write lock,
// reporting false if it is no longer resident.
func (m *Multi) refreshOne(host string) (res *Result, resident bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.publishLocked()
	v := m.vans[host]
	if v == nil {
		return nil, false, nil
	}
	res, recomputed, err := v.resolve(m.e)
	m.countRun(res, recomputed, err)
	return res, true, err
}

// countRun aggregates one vantage mapping run into the engine stats
// and timing.
func (m *Multi) countRun(res *Result, recomputed bool, err error) {
	if !recomputed || err != nil {
		return
	}
	m.e.timing.MapSum += res.MapDur
	m.e.timing.RouteSum += res.RouteDur
	m.e.timing.LabelsChanged += res.LabelsChanged
	if res.Incremental {
		m.e.Stats.Incremental++
	} else {
		m.e.Stats.FullRemaps++
	}
}

// cachedLocked reports whether v's result cache answers the current
// generation.
func (m *Multi) cachedLocked(v *vantage) bool {
	return m.e.updGen > 0 && v.resGen == m.e.updGen && (v.last != nil || v.err != nil)
}

// ResultFor returns the routes from the given vantage host, spinning up
// (or catching up) its machine if needed. The Result is immutable;
// concurrent callers may share it. A host the map does not have is
// refused before it is registered: it takes no vantage slot, so it
// evicts none, and no later Refresh maps it.
func (m *Multi) ResultFor(host string) (*Result, error) {
	h := m.e.foldName(host)
	m.mu.RLock()
	v := m.vans[h]
	if v != nil && m.cachedLocked(v) {
		res, err := v.last, v.err
		v.lastUsed.Store(m.tick.Add(1))
		m.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	if v == nil {
		if err := m.unknownLocked(h); err != nil {
			m.mu.RUnlock()
			return nil, err
		}
	}
	m.mu.RUnlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.publishLocked()
	v = m.vans[h]
	if v == nil {
		if err := m.unknownLocked(h); err != nil {
			return nil, err
		}
		v = m.createVantageLocked(h)
	}
	v.lastUsed.Store(m.tick.Add(1))
	res, recomputed, err := v.resolve(m.e)
	m.countRun(res, recomputed, err)
	return res, err
}

// unknownLocked returns the error a vantage at host would fail with for
// want of the host in the map, or nil. Before the first update every
// host is let through: the vantage then reports that there are no
// inputs.
func (m *Multi) unknownLocked(host string) error {
	if !m.e.journaled {
		return nil
	}
	_, err := m.e.localNodeFor(host)
	return err
}

// createVantageLocked registers a new vantage, evicting the
// least-recently-used one (never the default) when the cap is reached.
func (m *Multi) createVantageLocked(host string) *vantage {
	for len(m.vans) >= m.e.opts.MaxVantages && m.evictLocked() {
	}
	v := newVantage(host)
	m.vans[host] = v
	return v
}

// evictLocked drops the least-recently-used non-default vantage,
// reporting whether anything could be evicted.
func (m *Multi) evictLocked() bool {
	var victim *vantage
	var name string
	for n, v := range m.vans {
		if n == m.def {
			continue
		}
		if victim == nil || v.lastUsed.Load() < victim.lastUsed.Load() {
			victim, name = v, n
		}
	}
	if victim == nil {
		return false
	}
	delete(m.vans, name)
	return true
}

// Fold returns a host name as the engine keys it: lower-cased when
// Options.FoldCase is set, unchanged otherwise. Callers that key their
// own caches by host name fold through it.
func (m *Multi) Fold(name string) string { return m.e.foldName(name) }

// FoldCase reports the engine's Options.FoldCase setting.
func (m *Multi) FoldCase() bool { return m.e.opts.FoldCase }

// Vantages returns the resident vantage host names, sorted.
func (m *Multi) Vantages() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.vans))
	for n := range m.vans {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the engine activity counters as of the
// last completed Update, Refresh or ResultFor. It takes no lock, so it
// never waits for one in progress.
func (m *Multi) Stats() EngineStats {
	return *m.stats.Load()
}

// Timing returns the per-phase breakdown of the last effective update.
func (m *Multi) Timing() UpdateTiming {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.e.timing
}

// Close does nothing: the engine holds only heap memory. It remains so
// existing callers keep compiling.
func (m *Multi) Close() {}
