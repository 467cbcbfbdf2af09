package graph

// Graph patching support for the incremental re-map engine
// (internal/remap). The parser only ever grows a graph; the engine also
// needs to take things back out — a changed map file's old link
// declarations, alias edges, network memberships, gateway grants — and to
// overwrite attributes it recomputes from its contribution counters. All
// of these drop the memoized CSR snapshot like the additive mutators do;
// SnapshotPatched then rebuilds it cheaply by reusing the previous
// snapshot's rows for nodes whose adjacency did not change.

import (
	"sync"

	"pathalias/internal/cost"
)

// RemoveLink physically removes l from its From node's adjacency list
// and, for dedup-indexed links (ordinary declarations), from the
// duplicate-link index. It reports whether the link was
// found. The *Link value itself stays valid — labels may still point at
// it until the caller invalidates them — but it is detached from every
// graph structure.
func (g *Graph) RemoveLink(l *Link) bool {
	from := l.From
	var prev *Link
	for cur := from.links; cur != nil; cur = cur.Next {
		if cur == l {
			if prev == nil {
				from.links = l.Next
			} else {
				prev.Next = l.Next
			}
			if from.linkTail == l {
				from.linkTail = prev
			}
			l.Next = nil
			if l.Flags&(LAlias|LNetMember|LNetEntry) == 0 {
				g.linkIdx.del(linkKey(l.From, l.To))
			}
			g.snapCache = nil
			return true
		}
		prev = cur
	}
	return false
}

// SetLinkCost overwrites a link's cost and operator, leaving its flags
// alone. The engine uses it when the winning declaration for a duplicated
// link changes after a contributing file is edited.
func (g *Graph) SetLinkCost(l *Link, c cost.Cost, op Op) {
	g.snapCache = nil
	l.Cost = c
	l.Op = op
}

// SetLinkFlags overwrites a link's flags.
func (g *Graph) SetLinkFlags(l *Link, fl LinkFlags) {
	g.snapCache = nil
	l.Flags = fl
}

// SetNodeFlags overwrites a node's flags. The caller is responsible for
// preserving intrinsic bits (FDomain, and FGatewayed on domains) — the
// engine recomputes the full flag word from its counters.
func (g *Graph) SetNodeFlags(n *Node, fl NodeFlags) {
	g.snapCache = nil
	n.Flags = fl
}

// SetAdjust overwrites a node's cost adjustment (AdjustNode accumulates;
// the engine recomputes the total from its per-file contributions).
func (g *Graph) SetAdjust(n *Node, c cost.Cost) {
	g.snapCache = nil
	n.Adjust = c
}

// RemoveGateway removes host from net's declared gateway list. It does
// not clear FGatewayed; the engine recomputes that from its counters.
func (g *Graph) RemoveGateway(net, host *Node) {
	for i, h := range net.gateways {
		if h == host {
			net.gateways = append(net.gateways[:i], net.gateways[i+1:]...)
			g.snapCache = nil
			g.gwEpoch++
			return
		}
	}
}

// UndeclarePrivate removes the file-scoped binding of name for file,
// returning the formerly bound node (nil if no such binding). The node
// itself remains; references to the name in that file afterwards resolve
// to the global node again.
func (g *Graph) UndeclarePrivate(name, file string) *Node {
	e, ok := g.table.Lookup(g.fold(name))
	if !ok {
		return nil
	}
	for i, p := range e.privates {
		if p.File == file {
			e.privates = append(e.privates[:i], e.privates[i+1:]...)
			g.snapCache = nil
			return p
		}
	}
	return nil
}

// AddNetEdges appends the paid member→net entry edge and the free
// net→member edge for one network member, without AddNet's flag and
// gateway side effects (the engine tracks those through its own
// counters, so it can undo them). Self-membership is ignored, matching
// AddNet, and reported through the returned links being nil.
func (g *Graph) AddNetEdges(net, member *Node, entryCost cost.Cost, op Op) (entry, member2net *Link) {
	if member == net {
		g.selfLinks++
		return nil, nil
	}
	g.snapCache = nil
	entry = g.appendLink(member, net, entryCost, op, LNetEntry)
	member2net = g.appendLink(net, member, 0, op, LNetMember)
	return entry, member2net
}

// AddAliasEdges joins two names with a pair of zero-cost ALIAS edges,
// returning them; if the alias already exists (or a==b) it returns the
// existing pair with created=false, matching AddAlias's idempotence.
func (g *Graph) AddAliasEdges(a, b *Node) (ab, ba *Link, created bool) {
	if a == b {
		g.selfLinks++
		return nil, nil, false
	}
	for l := a.links; l != nil; l = l.Next {
		if l.To == b && l.Flags&LAlias != 0 {
			for r := b.links; r != nil; r = r.Next {
				if r.To == a && r.Flags&LAlias != 0 {
					return l, r, false
				}
			}
			return l, nil, false
		}
	}
	g.snapCache = nil
	ab = g.appendLink(a, b, 0, DefaultOp, LAlias)
	ba = g.appendLink(b, a, 0, DefaultOp, LAlias)
	return ab, ba, true
}

// AddLinkAt inserts an ordinary link with an explicit cost/op (the
// engine's recomputed duplicate winner) and indexes it. The caller
// guarantees no link exists for the pair. Self links are ignored.
func (g *Graph) AddLinkAt(from, to *Node, c cost.Cost, op Op) *Link {
	if from == to {
		g.selfLinks++
		return nil
	}
	key := linkKey(from, to)
	i := g.linkIdx.slot(key)
	if g.linkIdx.slots[i].key == key {
		return g.linkIdx.slots[i].val // defensive: behave like a duplicate
	}
	l := g.appendLink(from, to, c, op, 0)
	g.linkIdx.putAt(i, key, l)
	return l
}

// CountSelfLink bumps the self-link statistic, for engine replays that
// filter self links before reaching a graph mutator.
func (g *Graph) CountSelfLink() { g.selfLinks++ }

// CountDupLink bumps the duplicate-link statistic, for engine replays
// that fold duplicates through their own declaration index.
func (g *Graph) CountDupLink() { g.dupLinks++ }

// SnapshotPatched rebuilds the CSR snapshot after a set of in-place
// mutations, reusing the previous snapshot's edge rows for every node
// whose adjacency is unchanged. touched reports, by node ID, the nodes
// whose out-edge set (membership, order, cost, op, or flags) may have
// changed since old was built; their rows are rebuilt from the live
// adjacency lists, everything else is block-copied from old. Node
// attribute arrays (flags, adjustments, gateways) are always rebuilt —
// they are O(nodes), not O(edges). The node set may have GROWN since
// old was built — appended nodes are implicitly touched (their rows
// build from the live lists, and the rank arrays merge the new names
// into the cached order) — but it must not have shrunk, and no deletion
// may have flipped on an untouched node or its out-neighbors; callers
// with such structural changes use Snapshot instead.
//
// The result is installed as the graph's memoized snapshot, exactly as
// if Snapshot had built it from scratch.
func (g *Graph) SnapshotPatched(old *Snapshot, touched []bool) *Snapshot {
	nodes := g.nodes
	n := len(nodes)
	if old == nil || len(old.Row) > n+1 {
		return g.Snapshot()
	}
	nOld := len(old.Row) - 1
	// Reuse the spare snapshot's buffers when one is parked (the
	// snapshot displaced two patches ago): every array is fully
	// overwritten below, so recycling skips both the allocation and the
	// zeroing of ~25 bytes per edge per update.
	s := g.snapSpare
	g.snapSpare = nil
	if s == nil || s == old {
		s = &Snapshot{}
	}
	s.Nodes = nodes
	s.revOnce = sync.Once{} // the reverse buffers are reused on demand
	s.Row = resize(s.Row, n+1)
	s.NodeFlags = resize(s.NodeFlags, n)
	s.Adjust = resize(s.Adjust, n)
	// Gateway sets rarely change between updates; share the old map when
	// its version still matches.
	rebuildGws := old.gwEpoch != g.gwEpoch
	if rebuildGws {
		s.gateways = make(map[int32][]int32)
	} else {
		s.gateways = old.gateways
	}
	s.gwEpoch = g.gwEpoch

	edges := int32(0)
	for id, nd := range nodes {
		s.NodeFlags[id] = nd.Flags
		s.Adjust[id] = nd.Adjust
		if rebuildGws && len(nd.gateways) > 0 {
			gw := make([]int32, len(nd.gateways))
			for i, h := range nd.gateways {
				gw[i] = int32(h.ID)
			}
			s.gateways[int32(id)] = gw
		}
		s.Row[id] = edges
		if id < nOld && !touched[id] {
			edges += old.Row[id+1] - old.Row[id]
			continue
		}
		if nd.IsDeleted() {
			continue
		}
		for l := nd.links; l != nil; l = l.Next {
			if l.Flags&LDeleted == 0 && l.To.Flags&FDeleted == 0 {
				edges++
			}
		}
	}
	s.Row[n] = edges
	s.To = resize(s.To, int(edges))
	s.EdgeCost = resize(s.EdgeCost, int(edges))
	s.EdgeFlags = resize(s.EdgeFlags, int(edges))
	s.EdgeOp = resize(s.EdgeOp, int(edges))
	s.EdgeLink = resize(s.EdgeLink, int(edges))
	for id, nd := range nodes {
		e := s.Row[id]
		if id < nOld && !touched[id] {
			lo, hi := old.Row[id], old.Row[id+1]
			copy(s.To[e:], old.To[lo:hi])
			copy(s.EdgeCost[e:], old.EdgeCost[lo:hi])
			copy(s.EdgeFlags[e:], old.EdgeFlags[lo:hi])
			copy(s.EdgeOp[e:], old.EdgeOp[lo:hi])
			copy(s.EdgeLink[e:], old.EdgeLink[lo:hi])
			continue
		}
		if nd.IsDeleted() {
			continue
		}
		for l := nd.links; l != nil; l = l.Next {
			if l.Flags&LDeleted != 0 || l.To.Flags&FDeleted != 0 {
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

	// Ranks: cached when the node set is unchanged, merged incrementally
	// when it grew.
	s.Rank, s.ByRank = g.ranks()
	g.snapCache = s
	// Park the displaced snapshot's buffers for the patch after next
	// (the caller still copies from old this round).
	g.snapSpare = old
	return s
}

// resize returns s with length n, reusing capacity when it fits. The
// caller overwrites every element, so surviving contents don't matter.
// resize returns s with length n, reallocating with 25% headroom when
// the capacity falls short: patched snapshots grow by a node or two per
// generation on a watched map, and exact-fit buffers would defeat the
// spare-buffer recycling on every single patch.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, n+n/4)
}
