package remap

// A vantage is the per-source half of the engine: everything that
// depends on which LocalHost routes originate from. It owns a
// mapper.Machine (private labels, queue, back-link overlay) over the
// core's shared graph and CSR snapshot, its route rows (routes.go), and
// the latest Result. N vantages share one fragment cache, one journaled
// graph, and one snapshot; each costs only its labels and route rows.
// No route frame is stored: a route's text is a pure function of its
// label chain, so a warm patch rebuilds the frames it needs.
//
// A vantage may fall behind the core by several updates (a Multi
// recomputes lazily on query): recompute then replays the union of the
// change sets in between (core.eventsSince), which preserves the
// warm-start invariant — every label whose final value differs from the
// machine's current labeling is either invalidated or reachable from a
// seeded improvement source — because invalidation is keyed off the
// machine's own current labels, not off any single update's view.

import (
	"fmt"
	"sync/atomic"
	"time"

	"pathalias/internal/graph"
	"pathalias/internal/mapper"
	"pathalias/internal/printer"
)

// maxDirtyFrac is the warm-run abandon threshold: when more than this
// fraction of labels is invalidated, a full re-map is cheaper than
// patching. Warm runs exclude SecondBest, so there is one label per
// node: the threshold is half of the nodes.
const maxDirtyFrac = 0.5

type vantage struct {
	host string // case-folded vantage host name

	// Machine state. graphGen names the core graph the machine is bound
	// to (a journal rebuild allocates a fresh graph); jgen the journal
	// generation the machine's labels reflect; needFull forces the next
	// mapping run cold (new machine, failed run, structural change).
	mc       *mapper.Machine
	graphGen uint64
	jgen     uint64
	needFull bool

	// Result cache: last/err are valid for core generation resGen.
	resGen uint64
	last   *Result
	err    error

	// Route state (routes.go). The rows in canonical order are two
	// parallel arrays, entries (handed out as Result.Entries) and meta.
	// Neither is ever written once set: a change merges into fresh
	// arrays, so every Result, route store and what-if run built from
	// them may keep them. A what-if scratch copy starts with its
	// resident vantage's arrays. routeGen counts recomputes that
	// actually changed (or may have changed) the entry set, so
	// consumers can skip rebuilding downstream artifacts on no-op
	// updates.
	entries  []printer.Entry
	meta     []printer.Row
	routeGen uint64

	// lastUsed is the Multi's LRU tick, atomic so cached reads under the
	// shared read-lock can still touch it.
	lastUsed atomic.Uint64
}

func newVantage(host string) *vantage {
	return &vantage{host: host, needFull: true}
}

// resolve returns the vantage's result for the core's current update
// generation, recomputing when stale. recomputed reports that a mapping
// run happened (false when served from cache). Callers hold whatever
// lock guards the core; the recompute itself writes only vantage state.
func (v *vantage) resolve(e *core) (res *Result, recomputed bool, err error) {
	if e.updGen > 0 && v.resGen == e.updGen {
		if v.err != nil {
			return nil, false, v.err
		}
		if v.last != nil {
			return v.last, false, nil
		}
	}
	if !e.journaled {
		return nil, false, fmt.Errorf("remap: no inputs")
	}
	res, err = v.recompute(e)
	return res, true, err
}

// fail records a recompute failure for the current generation; the
// cached error stops identical queries from re-running a doomed
// mapping.
func (v *vantage) fail(e *core, err error) (*Result, error) {
	v.err = err
	v.resGen = e.updGen
	return nil, err
}

// recompute maps the vantage over the core's journaled graph — warm
// when the machine's labeling is close enough to the current journal
// generation, cold otherwise — and refreshes the route state.
func (v *vantage) recompute(e *core) (*Result, error) {
	start := time.Now()
	local, err := e.localNodeFor(v.host)
	if err != nil {
		return v.fail(e, err)
	}
	if v.graphGen != e.graphGen {
		v.mc = nil // bound to a graph the journal has since rebuilt
		v.graphGen = e.graphGen
	}
	run, err := v.remap(e, local, e.snap, e.eventsSince(v.jgen))
	if err != nil {
		return v.fail(e, err)
	}
	out := &Result{Incremental: run.warm, MapDur: run.mapDur}
	fillMapStats(out, run.res)
	if run.warm {
		out.LabelsChanged = run.changed
	}
	out.RouteGen = v.routeGen
	out.Entries = v.entries
	out.Warnings = e.warnings
	for _, n := range run.res.Unreachable {
		out.Unreachable = append(out.Unreachable, n.Name)
	}
	out.RouteDur = time.Since(start) - run.mapDur
	v.jgen = e.jgen
	v.resGen = e.updGen
	v.err = nil
	v.last = out
	return out, nil
}

// remapRun reports one vantage.remap run.
type remapRun struct {
	res     *mapper.Result
	warm    bool          // started from the machine's previous labeling
	changed int           // labels whose value changed (warm runs)
	mapDur  time.Duration // the mapping run, route derivation excluded
}

// remap brings v's machine and route state to snap: warm from the
// machine's current labeling when ev allows it, full otherwise. It is
// the one mapping procedure for both event sources — a source edit
// replays a journal span (recompute), a what-if question its overlay's
// edits on a copy of the vantage (Multi.EvalOverlay). A vantage without
// a machine gets a fresh one and a full run.
func (v *vantage) remap(e *core, local *graph.Node, snap *graph.Snapshot, ev mapEvents) (remapRun, error) {
	start := time.Now()
	if v.mc == nil {
		v.mc = mapper.NewMachine(e.g, e.mopts)
		v.needFull = true
	}
	v.mc.UseSnapshot(snap)
	v.mc.UseEdits(ev.edits)

	warm := !ev.structural && !v.needFull && v.mc.SourceID() == int32(local.ID)
	if warm && ev.grown {
		// The events added nodes (removed none): re-base the machine's
		// cached tie ranks onto the new snapshot and grow its label
		// array; the new nodes then warm-map as ordinary never-reached
		// labels.
		warm = v.mc.RebaseGrow() == nil
	}
	if warm {
		warm = v.mc.BeginWarm() == nil
	}
	if warm {
		// Every path riding a changed or removed edge is invalidated,
		// then every path through a node whose attributes changed.
		// Invalidation re-queues the dirty region's cost frontier;
		// seeding the sources of added/changed edges covers possible
		// improvements into still-mapped territory. The back links the
		// machine invented stay: each changed link's pair drops only
		// those it unmakes, and the run checks the rest where labels
		// move.
		invalidated, rootHit := 0, false
		maxDirty := int(float64(v.mc.NumLabels()) * maxDirtyFrac)
		for _, ed := range ev.edges {
			lv := v.mc.Label(v.mc.NodeLabel(ed.to))
			if lv.Node != nil && lv.Via == ed.link {
				n, hit := v.mc.InvalidateSubtree(ed.to)
				invalidated += n
				rootHit = rootHit || hit
			}
			invalidated += v.mc.LinkChanged(ed.from, ed.to)
		}
		for _, id := range ev.attrs {
			n, hit := v.mc.InvalidateSubtree(id)
			invalidated += n
			rootHit = rootHit || hit
			if invalidated > maxDirty {
				break
			}
		}
		if rootHit || invalidated > maxDirty {
			warm = false
		} else {
			for _, ed := range ev.edges {
				if !ed.removed {
					v.mc.Seed(ed.from)
				}
			}
			// Node-level effects the label diff cannot see — attribute
			// and IsNet flips change a node's write-back contribution
			// (unreachable membership, penalty counting) even when its
			// labels end up identical.
			for _, id := range ev.attrs {
				v.mc.MarkNodeDirty(id)
			}
			for _, id := range ev.netFlips {
				v.mc.MarkNodeDirty(id)
			}
		}
	}

	run := remapRun{warm: warm}
	var changed []int32
	if warm {
		run.res, changed = v.mc.FinishWarm()
		run.changed = len(changed)
	} else {
		var err error
		if run.res, err = v.mc.FullRun(local); err != nil {
			v.needFull = true
			return run, err
		}
	}
	v.needFull = false
	run.mapDur = time.Since(start)
	if warm {
		if v.patchRoutes(e, changed, ev.netFlips) {
			v.routeGen++
		}
	} else {
		v.rebuildRoutes(e)
		v.routeGen++
	}
	return run, nil
}

// overlayEvents turns a what-if overlay's edits into mapping events: a
// removed or re-costed link invalidates the labels riding it, and an
// added or re-costed one seeds its source.
func overlayEvents(ov *graph.Overlay) mapEvents {
	ev := mapEvents{edits: ov}
	if ov == nil {
		return ev
	}
	for ed := range ov.Edits() {
		ev.edges = append(ev.edges, edgeEvent{from: ed.From, to: ed.To, link: ed.Link, removed: ed.Removed})
	}
	return ev
}

// fillMapStats copies the mapping counters; a full run's LabelsChanged
// is every labeled node (the warm path overrides it).
func fillMapStats(out *Result, res *mapper.Result) {
	out.Reached = res.Reached
	out.LabelsChanged = res.Reached
	out.BackLinked = res.BackLinked
	out.Penalized = res.Penalized
	out.Extractions = res.Extractions
	out.Relaxations = res.Relaxations
}
