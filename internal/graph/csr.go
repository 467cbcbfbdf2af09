package graph

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"pathalias/internal/cost"
)

// Snapshot is a compressed-sparse-row (CSR) view of the graph, built once
// before a mapping run. The mapper's relax loop is the hottest code in the
// pipeline after parsing; walking the pointer-chained adjacency lists there
// costs a dependent load per edge. The snapshot lays every usable edge out
// in flat, index-addressed arrays — destination, cost, flags, operator —
// so the relax loop streams through contiguous memory, and node attributes
// consulted per relaxation (flags, adjustments, gateway sets) are flat
// arrays indexed by node ID as well.
//
// The snapshot is a read-only mirror: EdgeLink keeps each edge's original
// *Link, which mapping results name as tree edges. Unusable edges
// (deleted links, links touching deleted nodes) are filtered out at build
// time; the mapper must not consult the snapshot for usability. Nothing
// writes a snapshot once built, so any number of mapping runs can share
// one: a run's invented back links stay private to the run.
type Snapshot struct {
	Nodes []*Node // node ID -> node, aliasing Graph.Nodes()

	// CSR adjacency: the out-edges of node u are the indices
	// Row[u] <= e < Row[u+1].
	Row       []int32
	To        []int32
	EdgeCost  []cost.Cost
	EdgeFlags []LinkFlags
	EdgeOp    []Op
	EdgeLink  []*Link

	// Per-node attributes consulted in the relax loop.
	NodeFlags []NodeFlags
	Adjust    []cost.Cost

	// Rank is each node's position in the sorted order of distinct node
	// names: Rank[a] < Rank[b] iff Nodes[a].Name < Nodes[b].Name, and
	// nodes sharing a name (private collisions) share a rank. The mapper
	// breaks priority ties by rank instead of comparing name strings,
	// which also makes tie-breaking independent of node creation order.
	// ByRank lists node IDs in that order, so rank-ordered traversals
	// need no sort of their own.
	Rank   []int32
	ByRank []int32

	gateways map[int32][]int32 // node ID -> declared gateway IDs
	gwEpoch  uint64            // graph gateway-set version the map was built at

	// Reverse adjacency (see Reverse): patched from the base snapshot's
	// when a patch finds that one built, else built on first use.
	// revReady is set once revRow/revFrom are complete, so a patch can
	// tell without waiting on revOnce.
	revOnce  sync.Once
	revReady atomic.Bool
	revRow   []int32
	revFrom  []int32

	// What building the snapshot took (see Rebuilt).
	rowsRebuilt int
	revPatched  bool
}

// Snapshot returns a CSR snapshot of the graph's current usable edges.
// The snapshot is memoized: every mutating Graph method drops the cache,
// so repeated mapping runs over an unchanged graph (routed re-resolves,
// the E11/E13 experiments) pay the build cost once. Callers that mutate
// exported Node/Link fields directly, bypassing Graph methods, must not
// rely on the cache seeing those changes.
func (g *Graph) Snapshot() *Snapshot {
	if g.snapCache != nil {
		return g.snapCache
	}
	s := g.buildSnapshot()
	g.install(s)
	return s
}

// buildSnapshot builds a snapshot of the current graph from scratch,
// installing it nowhere.
func (g *Graph) buildSnapshot() *Snapshot {
	nodes := g.nodes
	n := len(nodes)
	s := &Snapshot{
		Nodes:       nodes,
		Row:         make([]int32, n+1),
		NodeFlags:   make([]NodeFlags, n),
		Adjust:      make([]cost.Cost, n),
		gateways:    gatewayMap(nodes),
		gwEpoch:     g.gwEpoch,
		rowsRebuilt: n,
	}

	// Count usable edges per node, then fill — two passes, no growth.
	edges := 0
	for id, nd := range nodes {
		s.NodeFlags[id] = nd.Flags
		s.Adjust[id] = nd.Adjust
		if nd.IsDeleted() {
			continue
		}
		for l := nd.links; l != nil; l = l.Next {
			if l.usable() {
				edges++
			}
		}
	}
	s.To = make([]int32, edges)
	s.EdgeCost = make([]cost.Cost, edges)
	s.EdgeFlags = make([]LinkFlags, edges)
	s.EdgeOp = make([]Op, edges)
	s.EdgeLink = make([]*Link, edges)
	e := int32(0)
	for id, nd := range nodes {
		s.Row[id] = e
		if nd.IsDeleted() {
			continue
		}
		for l := nd.links; l != nil; l = l.Next {
			if !l.usable() {
				continue
			}
			s.To[e] = int32(l.To.ID)
			s.EdgeCost[e] = l.Cost
			s.EdgeFlags[e] = l.Flags
			s.EdgeOp[e] = l.Op
			s.EdgeLink[e] = l
			e++
		}
	}
	s.Row[n] = e

	s.Rank, s.ByRank = g.ranks()
	return s
}

// usable reports whether l belongs in a snapshot row of its (undeleted)
// From node.
func (l *Link) usable() bool {
	return l.Flags&LDeleted == 0 && l.To.Flags&FDeleted == 0
}

// gatewayMap maps each node with declared gateways to their IDs.
func gatewayMap(nodes []*Node) map[int32][]int32 {
	m := make(map[int32][]int32)
	for id, nd := range nodes {
		if len(nd.gateways) == 0 {
			continue
		}
		gw := make([]int32, len(nd.gateways))
		for i, h := range nd.gateways {
			gw[i] = int32(h.ID)
		}
		m[int32(id)] = gw
	}
	return m
}

type nameID struct {
	name string
	id   int32
}

// ranks returns the name-rank arrays for the current node set: Rank maps
// node ID to its position in the sorted order of distinct node names
// (nodes sharing a name share a rank), ByRank lists node IDs in that
// order. Names are immutable and nodes only ever get added, so the
// result is cached on the graph; when the node list has merely grown
// since the cache was built, the new names are sorted on their own and
// merged into the cached order in one O(n) pass instead of re-sorting
// every name — the steady-state cost of a watched map absorbing small
// edits. Order within a shared rank is whatever the merge (or the
// unstable sort) produced; only the rank values are contractual.
func (g *Graph) ranks() (rank, byRank []int32) {
	nodes := g.nodes
	n := len(nodes)
	if old := len(g.rankCache); old == n {
		return g.rankCache, g.byRankCache
	} else if old > 0 && old < n {
		add := make([]nameID, n-old)
		for id := old; id < n; id++ {
			add[id-old] = nameID{nodes[id].Name, int32(id)}
		}
		slices.SortFunc(add, func(a, b nameID) int {
			return strings.Compare(a.name, b.name)
		})
		rank = make([]int32, n)
		byRank = make([]int32, n)
		oldByRank := g.byRankCache
		r := int32(-1)
		prev := ""
		i, j := 0, 0
		for k := 0; k < n; k++ {
			var id int32
			var name string
			if i < old && (j == len(add) || nodes[oldByRank[i]].Name <= add[j].name) {
				id = oldByRank[i]
				name = nodes[id].Name
				i++
			} else {
				id = add[j].id
				name = add[j].name
				j++
			}
			if k == 0 || name != prev {
				r++
				prev = name
			}
			rank[id] = r
			byRank[k] = id
		}
		g.rankCache, g.byRankCache = rank, byRank
		return rank, byRank
	}
	// Sort flat (name, id) pairs rather than indirecting through the
	// node slice per compare; the sort is the dominant cost here.
	arr := make([]nameID, n)
	for i, nd := range nodes {
		arr[i] = nameID{nd.Name, int32(i)}
	}
	slices.SortFunc(arr, func(a, b nameID) int {
		return strings.Compare(a.name, b.name)
	})
	rank = make([]int32, n)
	byRank = make([]int32, n)
	r := int32(-1)
	prev := ""
	for k := range arr {
		if k == 0 || arr[k].name != prev {
			r++
			prev = arr[k].name
		}
		rank[arr[k].id] = r
		byRank[k] = arr[k].id
	}
	g.rankCache, g.byRankCache = rank, byRank
	return rank, byRank
}

// Reverse returns the reverse CSR adjacency: the in-neighbors of node v
// are from[row[v]:row[v+1]], in ascending node-ID order, a source
// repeated once per parallel edge. Only warm mapping runs need it. A
// patched snapshot derives it from its base's when that one was built
// (patchReverse); otherwise it is built on the first call — once per
// snapshot, however many machines map over it — and shared read-only
// afterwards; safe for concurrent use.
func (s *Snapshot) Reverse() (row, from []int32) {
	s.revOnce.Do(s.buildReverse)
	return s.revRow, s.revFrom
}

// Rebuilt reports what building s took: how many CSR rows were built
// from the live adjacency lists (or, for an overlay, from its edits)
// rather than copied — every row for a full build — and whether the
// reverse adjacency was patched from the base snapshot's instead of
// being left to a full build on first use.
func (s *Snapshot) Rebuilt() (rows int, reversePatched bool) {
	return s.rowsRebuilt, s.revPatched
}

// buildReverse derives the reverse adjacency by counting sort over the
// edge targets, reusing the buffers of a recycled snapshot.
func (s *Snapshot) buildReverse() {
	n := len(s.Row) - 1
	row := resize(s.revRow, n+1)
	clear(row)
	for _, v := range s.To {
		row[v+1]++
	}
	for i := 1; i <= n; i++ {
		row[i] += row[i-1]
	}
	from := resize(s.revFrom, len(s.To))
	// row[v] is v's window start; use it as v's fill cursor, which
	// leaves it at the next window's start, then shift back.
	for u := 0; u < n; u++ {
		for e := s.Row[u]; e < s.Row[u+1]; e++ {
			from[row[s.To[e]]] = int32(u)
			row[s.To[e]]++
		}
	}
	copy(row[1:], row[:n])
	row[0] = 0
	s.revRow, s.revFrom = row, from
	s.revReady.Store(true)
}

// IsGateway reports whether host is a declared gateway of net, by ID.
func (s *Snapshot) IsGateway(net, host int32) bool {
	for _, g := range s.gateways[net] {
		if g == host {
			return true
		}
	}
	return false
}

// VerifySnapshot compares s with a snapshot built from scratch from the
// graph as it is now — every CSR array, the node attributes, the
// gateway sets and the ranks, and, when s's reverse adjacency is built,
// buildReverse's arrays — and describes the first difference, or returns
// nil. It costs a full build; tests use it to hold patched snapshots to
// the from-scratch ones.
func (g *Graph) VerifySnapshot(s *Snapshot) error {
	want := g.buildSnapshot()
	if len(s.Nodes) != len(want.Nodes) {
		return fmt.Errorf("graph: snapshot has %d nodes, graph %d", len(s.Nodes), len(want.Nodes))
	}
	for _, err := range []error{
		firstDiff("Row", s.Row, want.Row),
		firstDiff("To", s.To, want.To),
		firstDiff("EdgeCost", s.EdgeCost, want.EdgeCost),
		firstDiff("EdgeFlags", s.EdgeFlags, want.EdgeFlags),
		firstDiff("EdgeOp", s.EdgeOp, want.EdgeOp),
		firstDiff("EdgeLink", s.EdgeLink, want.EdgeLink),
		firstDiff("NodeFlags", s.NodeFlags, want.NodeFlags),
		firstDiff("Adjust", s.Adjust, want.Adjust),
		firstDiff("Rank", s.Rank, want.Rank),
	} {
		if err != nil {
			return err
		}
	}
	if !maps.EqualFunc(s.gateways, want.gateways, slices.Equal) {
		return fmt.Errorf("graph: snapshot gateways %v, want %v", s.gateways, want.gateways)
	}
	if !s.revReady.Load() {
		return nil
	}
	want.buildReverse()
	if err := firstDiff("reverse row", s.revRow, want.revRow); err != nil {
		return err
	}
	return firstDiff("reverse from", s.revFrom, want.revFrom)
}

func firstDiff[T comparable](what string, got, want []T) error {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("graph: snapshot %s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("graph: snapshot %s has %d elements, want %d", what, len(got), len(want))
	}
	return nil
}
