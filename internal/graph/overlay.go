package graph

import (
	"iter"
	"maps"
	"slices"

	"pathalias/internal/cost"
)

// Overlay is a query-scoped set of hypothetical link edits — the "what
// if link X died / cost Y / existed" questions the paper answers by
// editing source files and re-running. An overlay never touches the
// graph or its caches: it records removals, cost overrides, and added
// links against existing *Link values and node IDs, and PatchSnapshot
// materializes a private snapshot view with only the touched adjacency
// rows rebuilt.
//
// Cost overrides and additions are represented by private shadow *Link
// values owned by the overlay, so everything downstream that derefs a
// snapshot edge's Link (first-hop costs, route explanation) sees the
// hypothetical cost without the shared link ever changing.
//
// An Overlay is built once and then read concurrently; it must not be
// edited after PatchSnapshot or after being handed to a mapper machine.
type Overlay struct {
	removed  map[*Link]bool
	override map[*Link]*Link   // base link -> private shadow with edited cost
	added    map[int32][]*Link // from-node ID -> private added links, in add order
	addedIdx map[uint64]*Link  // linkKey(from, to) -> added link
	touched  map[int32]bool    // from-node IDs whose CSR rows need a rebuild
	log      []OverlayEdit     // every edit, in the order it was made
}

// OverlayEdit is one recorded edit in the terms a warm mapping run
// consumes (mapper.Machine.InvalidateSubtree, Seed): the edited edge's
// endpoints, the link it names — the base link for a removal or a cost
// override, which labels of the unedited map ride; the private link for
// an addition — and whether the edge is gone from the patched view.
type OverlayEdit struct {
	From, To int32
	Link     *Link
	Removed  bool
}

// NewOverlay returns an empty overlay.
func NewOverlay() *Overlay {
	return &Overlay{
		removed:  make(map[*Link]bool),
		override: make(map[*Link]*Link),
		added:    make(map[int32][]*Link),
		addedIdx: make(map[uint64]*Link),
		touched:  make(map[int32]bool),
	}
}

// Edits iterates over the recorded edits in the order they were made.
func (ov *Overlay) Edits() iter.Seq[OverlayEdit] { return slices.Values(ov.log) }

func (ov *Overlay) record(l *Link, removed bool) {
	ov.log = append(ov.log, OverlayEdit{From: int32(l.From.ID), To: int32(l.To.ID), Link: l, Removed: removed})
}

// RemoveLink hides l (a link of the base graph) from the patched view.
func (ov *Overlay) RemoveLink(l *Link) {
	ov.removed[l] = true
	ov.touched[int32(l.From.ID)] = true
	ov.record(l, true)
}

// OverrideCost gives l the cost c in the patched view.
func (ov *Overlay) OverrideCost(l *Link, c cost.Cost) {
	shadow := &Link{From: l.From, To: l.To, Cost: c, Op: l.Op, Flags: l.Flags}
	ov.override[l] = shadow
	ov.touched[int32(l.From.ID)] = true
	ov.record(l, false)
}

// AddLink adds a hypothetical from->to link with the given cost and
// operator to the patched view and returns the private link value.
func (ov *Overlay) AddLink(from, to *Node, c cost.Cost, op Op) *Link {
	l := &Link{From: from, To: to, Cost: c, Op: op}
	id := int32(from.ID)
	ov.added[id] = append(ov.added[id], l)
	ov.addedIdx[linkKey(from, to)] = l
	ov.touched[id] = true
	ov.record(l, false)
	return l
}

// Removed reports whether l is hidden by the overlay.
func (ov *Overlay) Removed(l *Link) bool { return ov.removed[l] }

// Shadow returns the overlay's cost-override shadow for l, or l itself.
func (ov *Overlay) Shadow(l *Link) *Link {
	if s := ov.override[l]; s != nil {
		return s
	}
	return l
}

// AddedFrom returns the overlay-added links out of node id, in add order.
func (ov *Overlay) AddedFrom(id int32) []*Link { return ov.added[id] }

// FindLink is g.FindLink as seen through the overlay: added links are
// found and cost-overridden links resolve to their shadow. A removed
// link is still returned — `dead a b` matches the source language's
// `delete {a!b}`, which flags the declaration LDeleted without
// unregistering it, so the pair keeps blocking back-link invention.
// Callers that must not traverse a removed link check Removed first.
func (ov *Overlay) FindLink(g *Graph, from, to *Node) *Link {
	if l := ov.addedIdx[linkKey(from, to)]; l != nil {
		return l
	}
	l := g.FindLink(from, to)
	if l == nil {
		return nil
	}
	return ov.Shadow(l)
}

// PatchSnapshot builds a private snapshot applying the overlay to base,
// through the same run-copying patch as Graph.SnapshotPatched: untouched
// adjacency rows are block-copied; touched rows are rebuilt with removed
// edges dropped, overridden edges re-costed (EdgeLink pointing at the
// private shadow), and added edges appended at the end of their row —
// the same position a link appended to the source would occupy in a
// fresh parse. With reverse set and base's reverse adjacency built, the
// view's is patched from it; otherwise the view builds its own on first
// use. Only warm mapping runs read it: a full run on a fresh machine
// passes reverse=false and never pays for it.
//
// Unlike Graph.Snapshot/SnapshotPatched this is a pure function: it
// installs nothing in any cache and never reads the graph, so it is safe
// under a read lock with concurrent overlay evaluations. Every array the
// mapper or an explainer will index — Row, To, EdgeCost, EdgeFlags,
// EdgeOp, EdgeLink, NodeFlags, Adjust and the reverse adjacency — is
// freshly allocated even for a zero-edit overlay, because the engine
// recycles displaced snapshot buffers across updates and a cached
// overlay evaluation must stay readable after the base map moves on.
// Only immutable-after-build data is shared: Nodes (names and IDs never
// change), the rank arrays (replaced, never edited in place), and the
// gateway map.
func (ov *Overlay) PatchSnapshot(base *Snapshot, reverse bool) *Snapshot {
	ids := slices.Sorted(maps.Keys(ov.touched))
	var p rowPatch
	for _, id := range ids {
		p.begin(id)
		for x := base.Row[id]; x < base.Row[id+1]; x++ {
			l := base.EdgeLink[x]
			if ov.removed[l] {
				continue
			}
			c := base.EdgeCost[x]
			if sh := ov.override[l]; sh != nil {
				c, l = sh.Cost, sh
			}
			p.add(base.To[x], c, base.EdgeFlags[x], base.EdgeOp[x], l)
		}
		for _, l := range ov.added[id] {
			p.add(int32(l.To.ID), l.Cost, l.Flags, l.Op, l)
		}
	}
	s := &Snapshot{
		Nodes:    base.Nodes,
		Rank:     base.Rank,
		ByRank:   base.ByRank,
		gateways: base.gateways,
		gwEpoch:  base.gwEpoch,
	}
	s.patchFrom(base, len(base.Row)-1, &p, reverse)
	return s
}
