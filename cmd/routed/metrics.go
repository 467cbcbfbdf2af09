package main

// The daemon's metrics surface (GET /metrics): one obs.Registry per
// daemon, carrying the request-latency histograms the serving paths
// feed directly, plus Func series that read counters where they already
// live — the store's resolver, the what-if cache, the re-map engine.
// Reading at scrape time instead of mirroring means a store hot-swap or
// an engine rebuild never leaves the registry holding a stale copy.

import (
	"fmt"
	"runtime"
	"time"

	"pathalias/internal/obs"
	"pathalias/internal/remap"
	"pathalias/internal/whatif"
)

// serverMetrics bundles the daemon's registry and the instruments the
// hot paths write into. A nil *serverMetrics disables instrumentation
// entirely (the overhead test serves with and without to pin the cost);
// the real constructors always build one.
type serverMetrics struct {
	reg *obs.Registry

	// Request latency by serving surface. The line protocol and the
	// bulk HTTP endpoint observe batch means at flush boundaries
	// (Histogram.ObserveBatch) — per-request clock reads would cost a
	// measurable slice of the ~170ns the request itself takes.
	line       *obs.Histogram // pipelined line protocol (TCP/stdin)
	httpRoute  *obs.Histogram // GET /route
	httpRoutes *obs.Histogram // POST /routes, batch mean
	whatifReq  *obs.Histogram // what-if requests (POST /whatif + line forms)

	// Overlay evaluation latency, split by whether the evaluator ran a
	// private mapping pass (cold) or answered from its LRU / an
	// in-flight evaluation (cached). Fed by whatif.Options.Observe.
	overlayCold   *obs.Histogram
	overlayCached *obs.Histogram

	slow      *obs.Counter // queries over the -slow threshold
	demotions *obs.Counter // store demotions after a failed image audit
}

// newServerMetrics builds the registry and registers everything knowable
// at daemon construction. Series that only exist in -map mode are added
// later by registerMapMetrics; the build identity (version is a main
// package variable) by registerBuildInfo.
func newServerMetrics(d *daemon) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{reg: reg}

	const reqHelp = "Request latency by serving surface, seconds. Pipelined surfaces observe batch means at flush boundaries."
	m.line = reg.Histogram(`routed_request_seconds{surface="line"}`, reqHelp)
	m.httpRoute = reg.Histogram(`routed_request_seconds{surface="http_route"}`, reqHelp)
	m.httpRoutes = reg.Histogram(`routed_request_seconds{surface="http_routes"}`, reqHelp)
	m.whatifReq = reg.Histogram(`routed_request_seconds{surface="whatif"}`, reqHelp)

	const ovHelp = "Overlay evaluation latency, seconds: cold ran a private mapping pass, cached hit the LRU or an in-flight evaluation."
	m.overlayCold = reg.Histogram(`routed_overlay_eval_seconds{result="cold"}`, ovHelp)
	m.overlayCached = reg.Histogram(`routed_overlay_eval_seconds{result="cached"}`, ovHelp)

	m.slow = reg.Counter("routed_slow_queries_total", "Queries slower than the -slow threshold.")
	m.demotions = reg.Counter("routed_store_demotions_total", "Serving databases demoted after failing background deep verification.")

	// The resolver's counters live on the store's current database and
	// survive hot swaps there, not here: read them at scrape time.
	const resHelp = "Resolves against the default serving store, by outcome."
	reg.CounterFunc(`routed_resolves_total{outcome="hit"}`, resHelp,
		func() float64 { return float64(d.store.DB().Stats().Hits) })
	reg.CounterFunc(`routed_resolves_total{outcome="suffix"}`, resHelp,
		func() float64 { return float64(d.store.DB().Stats().SuffixHits) })
	reg.CounterFunc(`routed_resolves_total{outcome="miss"}`, resHelp,
		func() float64 { return float64(d.store.DB().Stats().Misses) })
	reg.CounterFunc("routed_lookups_total", "Exact Lookup calls against the default serving store.",
		func() float64 { return float64(d.store.DB().Stats().Lookups) })
	reg.GaugeFunc("routed_routes", "Routes in the default serving store.",
		func() float64 { return float64(d.store.Len()) })
	reg.CounterFunc("routed_store_swaps_total", "Hot swaps of the default serving database.",
		func() float64 { return float64(d.swaps.Load()) })
	reg.GaugeFunc("routed_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(d.started).Seconds() })
	return m
}

// registerBuildInfo adds the identity series. The version string is a
// main-package variable set via -ldflags, so this runs from run(), not
// the daemon constructors; image is the compiled database the daemon
// serves or publishes ("" when none).
func (m *serverMetrics) registerBuildInfo(version, image string) {
	m.reg.GaugeFunc(fmt.Sprintf("routed_build_info{version=%q,go=%q}", version, runtime.Version()),
		"Build identity; the value is always 1.", func() float64 { return 1 })
	if image != "" {
		m.reg.GaugeFunc(fmt.Sprintf("routed_image_info{path=%q}", image),
			"Compiled route database served or published; the value is always 1.", func() float64 { return 1 })
	}
}

// registerMapMetrics adds the -map mode series: re-map engine activity
// and the what-if overlay cache, both read where they live.
func (m *serverMetrics) registerMapMetrics(eng *remap.Multi, ev *whatif.Evaluator) {
	m.reg.GaugeFunc("routed_map_generation", "Engine update generation; 0 until the first map computation lands.",
		func() float64 { return float64(eng.Generation()) })
	const updHelp = "Engine updates, by whether the inputs actually changed."
	m.reg.CounterFunc(`routed_remap_updates_total{result="changed"}`, updHelp,
		func() float64 { return float64(eng.Stats().Updates) })
	m.reg.CounterFunc(`routed_remap_updates_total{result="unchanged"}`, updHelp,
		func() float64 { return float64(eng.Stats().Unchanged) })
	const vanHelp = "Per-vantage mapping runs, by path: warm re-used the previous labeling, full re-mapped from scratch."
	m.reg.CounterFunc(`routed_vantage_remaps_total{path="warm"}`, vanHelp,
		func() float64 { return float64(eng.Stats().Incremental) })
	m.reg.CounterFunc(`routed_vantage_remaps_total{path="full"}`, vanHelp,
		func() float64 { return float64(eng.Stats().FullRemaps) })
	m.reg.CounterFunc("routed_files_rescanned_total", "Map source files re-parsed across updates.",
		func() float64 { return float64(eng.Stats().Rescanned) })
	const wfHelp = "What-if overlay cache activity."
	m.reg.CounterFunc(`routed_whatif_cache_total{event="hit"}`, wfHelp,
		func() float64 { return float64(ev.Stats().Hits) })
	m.reg.CounterFunc(`routed_whatif_cache_total{event="miss"}`, wfHelp,
		func() float64 { return float64(ev.Stats().Misses) })
	m.reg.CounterFunc(`routed_whatif_cache_total{event="eviction"}`, wfHelp,
		func() float64 { return float64(ev.Stats().Evictions) })
	const runHelp = "What-if mapping runs, by start: warm from the resident vantage's solved tree, full from scratch."
	m.reg.CounterFunc(`routed_whatif_runs_total{start="warm"}`, runHelp,
		func() float64 { return float64(ev.Stats().WarmRuns) })
	m.reg.CounterFunc(`routed_whatif_runs_total{start="full"}`, runHelp,
		func() float64 { return float64(ev.Stats().FullRuns) })
	m.reg.GaugeFunc("routed_whatif_resident", "Cached overlay machines resident in the what-if LRU.",
		func() float64 { return float64(ev.Stats().Resident) })
}

// latencySummary is /stats' JSON rendering of one latency histogram.
type latencySummary struct {
	Count uint64  `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P90ms float64 `json:"p90_ms"`
	P99ms float64 `json:"p99_ms"`
}

// summarize reduces a histogram to the /stats summary; ok is false with
// no observations, so unsampled surfaces stay out of the JSON (and the
// exact stats-line shape predating the histograms stays pinned).
func summarize(h *obs.Histogram) (s latencySummary, ok bool) {
	n := h.Count()
	if n == 0 {
		return latencySummary{}, false
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return latencySummary{
		Count: n,
		P50ms: ms(h.Quantile(0.50)),
		P90ms: ms(h.Quantile(0.90)),
		P99ms: ms(h.Quantile(0.99)),
	}, true
}
