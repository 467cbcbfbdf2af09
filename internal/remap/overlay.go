package remap

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"pathalias/internal/graph"
	"pathalias/internal/mapper"
	"pathalias/internal/printer"
)

// What-if overlay evaluation: map a hypothetical edit set against the
// engine's shared graph and snapshot without touching either. The whole
// evaluation happens under the Multi read lock — build the overlay
// against the live graph, patch a private snapshot view, copy the
// vantage, run it over the view — so it can run concurrently with other
// overlays and with serving reads, while updates (which take the write
// lock) are simply held off for the few milliseconds a run takes.
//
// A resident vantage already holds the solved tree for the current
// generation, so the copy starts from it and maps only what the edits
// disturb, by the same warm procedure a source edit takes
// (vantage.remap): labels riding a removed or re-costed link are
// invalidated, sources of added or re-costed links seeded. The copy
// clones the machine's labels but not the route rows: the warm patch
// reads the resident rows and merges into fresh arrays, and a run that
// changes no row keeps the resident's, which nothing writes. A vantage
// that is not resident is mapped in full on a fresh machine, through
// the same procedure, and stays non-resident — making it resident would
// add its re-map to every later source edit.
//
// The returned OverlayRun is self-contained: its entries, label table,
// and snapshot stay valid (and race-free) after the base map moves on,
// which is what lets internal/whatif cache evaluations across queries.

// ErrOverlayUnavailable is returned when the engine cannot answer
// what-if queries: no update has been accepted yet. (An update rejected
// for syntax errors leaves the last accepted map state serving, what-if
// included.)
var ErrOverlayUnavailable = errors.New("remap: what-if overlays unavailable (no clean journaled map state)")

// OverlayCtx is the read-only graph view handed to an overlay builder.
// All lookups fold names the way the engine does.
type OverlayCtx struct{ e *core }

// Lookup resolves a host name to its live node. Ghosts — names that only
// survive as deleted placeholders — do not resolve.
func (c OverlayCtx) Lookup(name string) (*graph.Node, bool) {
	n, ok := c.e.g.Lookup(c.e.foldName(name))
	if !ok {
		return nil, false
	}
	if c.e.ghost(id32(n)) {
		return nil, false
	}
	return n, true
}

// FindLink returns the declared from->to link, if any.
func (c OverlayCtx) FindLink(from, to *graph.Node) *graph.Link {
	return c.e.g.FindLink(from, to)
}

// OverlayRun is one evaluated what-if: the routing table a fresh run
// over the edited map would produce, plus the machine and patched
// snapshot needed to explain individual routes. Everything here is
// private to the run or immutable — the row arrays may be the resident
// vantage's, which the engine never writes once handed out — so it may
// be cached and read after later base-map updates without
// synchronization.
type OverlayRun struct {
	Gen         uint64          // engine update generation the run is valid for
	Host        string          // folded vantage host
	Entries     []printer.Entry // full routing table under the overlay, in name order
	Unreachable []string        // hosts with no route even after back links

	// Warm reports that the run started from the resident vantage's
	// solved tree; Relaxations counts the edge relaxations it took.
	Warm        bool
	Relaxations int64

	Machine *mapper.Machine // the run's private machine; labels index explain
	Snap    *graph.Snapshot // the private patched view the machine ran on
	Overlay *graph.Overlay  // nil for a base (no-edit) evaluation

	rows []printer.Row // Entries' labels, for LabelFor
}

// LabelFor returns the machine label printed for host — the node's own
// name sorts before a domain-qualified one, so a name printed twice
// gives the first — or false when no entry has that name.
func (r *OverlayRun) LabelFor(host string) (int32, bool) {
	i, ok := slices.BinarySearchFunc(r.Entries, host, func(en printer.Entry, h string) int {
		return strings.Compare(en.Host, h)
	})
	if !ok {
		return -1, false
	}
	return r.rows[i].Label, true
}

// Generation returns the engine's update generation as of the last
// completed Update. A cached OverlayRun is current iff its Gen matches.
// It takes no lock, so it never waits for an Update in progress.
func (m *Multi) Generation() uint64 {
	return m.gen.Load()
}

// EvalOverlay evaluates a hypothetical edit set from the given vantage
// host. build receives a read-only view of the live graph and returns
// the overlay to apply; a nil overlay (or one with no edits) evaluates
// the unmodified base map — the comparison side of an impact report,
// guaranteed byte-identical to the serving tables at the same Gen.
func (m *Multi) EvalOverlay(host string, build func(OverlayCtx) (*graph.Overlay, error)) (*OverlayRun, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e := m.e
	if !e.journaled {
		return nil, ErrOverlayUnavailable
	}
	hostName := e.foldName(host)
	local, err := e.localNodeFor(hostName)
	if err != nil {
		return nil, err
	}
	var ov *graph.Overlay
	if build != nil {
		ov, err = build(OverlayCtx{e})
		if err != nil {
			return nil, err
		}
	}
	// Always patch, even with zero edits: the patched snapshot is the
	// run's private, stable copy of the edge arrays (the engine recycles
	// the base snapshot's buffers on later updates). Only a warm run reads
	// the reverse adjacency: the base's is built once per generation, and
	// a warm view patches its own from it instead of building one from
	// scratch. A full run on a fresh machine never reads it.
	v := m.vans[hostName].scratch(e)
	warm := v != nil
	if warm {
		e.snap.Reverse()
	} else {
		v = newVantage(hostName)
	}
	edits := ov
	if edits == nil {
		edits = graph.NewOverlay()
	}
	snap := edits.PatchSnapshot(e.snap, warm)
	r, err := v.remap(e, local, snap, overlayEvents(ov))
	if err != nil {
		return nil, fmt.Errorf("remap: overlay map run: %w", err)
	}
	v.mc.ReleaseRunState() // explain reads only labels; cached runs stay small
	run := &OverlayRun{
		Gen:         e.updGen,
		Host:        hostName,
		Entries:     v.entries,
		Warm:        r.warm,
		Relaxations: r.res.Relaxations,
		Machine:     v.mc,
		Snap:        snap,
		Overlay:     ov,
		rows:        v.meta,
	}
	if len(r.res.Unreachable) > 0 {
		run.Unreachable = make([]string, len(r.res.Unreachable))
		for i, n := range r.res.Unreachable {
			run.Unreachable[i] = n.Name
		}
	}
	return run, nil
}

// scratch returns a copy of v to run a what-if overlay on, or nil when
// v is nil or does not hold the solved tree for the core's current
// journal generation. The machine is cloned; the route rows are v's
// own, which no vantage writes (patchRoutes merges into fresh arrays),
// so the copy shares them and a run that changes no row returns them.
// Neither side writes a buffer the other reads, so the copy may run
// under the read lock while v serves.
func (v *vantage) scratch(e *core) *vantage {
	if v == nil || v.mc == nil || v.needFull || v.err != nil ||
		v.graphGen != e.graphGen || v.jgen != e.jgen || v.resGen != e.updGen {
		return nil
	}
	return &vantage{
		host:     v.host,
		mc:       v.mc.Clone(),
		graphGen: v.graphGen,
		jgen:     v.jgen,
		entries:  v.entries,
		meta:     v.meta,
	}
}
