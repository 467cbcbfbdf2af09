package graph

// Graph patching support for the incremental re-map engine
// (internal/remap). The parser only ever grows a graph; the engine also
// needs to take things back out — a changed map file's old link
// declarations, alias edges, network memberships, gateway grants — and to
// overwrite attributes it recomputes from its contribution counters. All
// of these drop the memoized CSR snapshot like the additive mutators do;
// SnapshotPatched then rebuilds it cheaply by copying the previous
// snapshot's rows for nodes whose adjacency did not change, and its
// node attributes for nodes no mutator wrote.

import (
	"cmp"
	"slices"
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
	g.markAttr(n)
	n.Flags = fl
}

// SetAdjust overwrites a node's cost adjustment (AdjustNode accumulates;
// the engine recomputes the total from its per-file contributions).
func (g *Graph) SetAdjust(n *Node, c cost.Cost) {
	g.snapCache = nil
	g.markAttr(n)
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
	e, ok := g.table.Lookup(g.Fold(name))
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

// AddLinkAt returns the ordinary link from → to, inserting it with cost
// c and operator op when the pair has none (created reports which), in
// one probe of the duplicate-link index. An existing link is returned
// as it is: the engine folds duplicates through its own declaration
// chains. Self links are ignored (nil, false).
func (g *Graph) AddLinkAt(from, to *Node, c cost.Cost, op Op) (l *Link, created bool) {
	if from == to {
		g.selfLinks++
		return nil, false
	}
	key := linkKey(from, to)
	i := g.linkIdx.slot(key)
	if g.linkIdx.slots[i].key == key {
		return g.linkIdx.slots[i].val, false
	}
	l = g.appendLink(from, to, c, op, 0)
	g.linkIdx.putAt(i, key, l)
	return l, true
}

// CountSelfLink bumps the self-link statistic, for engine replays that
// filter self links before reaching a graph mutator.
func (g *Graph) CountSelfLink() { g.selfLinks++ }

// CountDupLink bumps the duplicate-link statistic, for engine replays
// that fold duplicates through their own declaration chains.
func (g *Graph) CountDupLink() { g.dupLinks++ }

// SnapshotPatched rebuilds the CSR snapshot after a set of in-place
// mutations. touched lists, by node ID and in any order (the slice is
// sorted in place), the nodes whose out-edge set (membership, order,
// cost, op, or flags) may have changed since old was built; their rows
// are rebuilt from the live adjacency lists, and every maximal run of
// the other rows is block-copied from old. The node set may have GROWN
// since old was built — appended nodes are implicitly touched (their
// rows build from the live lists, and the rank arrays merge the new
// names into the cached order) — but it must not have shrunk, and no
// deletion may have flipped on an untouched node or its out-neighbors;
// callers with such structural changes use Snapshot instead.
//
// Node flags and adjustments are copied from old too, and re-read only
// for touched and appended nodes and those a Graph method wrote since
// old was built (the graph records them); when old is not the graph's
// latest snapshot, every node is re-read. When old's reverse adjacency
// is built, the new snapshot's is patched from it here (patchReverse);
// otherwise it is left to a full build on first use.
//
// The result is installed as the graph's memoized snapshot, exactly as
// if Snapshot had built it from scratch.
func (g *Graph) SnapshotPatched(old *Snapshot, touched []int32) *Snapshot {
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

	slices.Sort(touched)
	touched = slices.Compact(touched)
	p := &g.rowBuf
	p.reset()
	for _, id := range touched {
		if int(id) < nOld {
			g.liveRow(p, id)
		}
	}
	for id := nOld; id < n; id++ {
		g.liveRow(p, int32(id))
	}
	s.Nodes = nodes
	s.patchFrom(old, n, p, true)

	reread := func(id int32) {
		s.NodeFlags[id] = nodes[id].Flags
		s.Adjust[id] = nodes[id].Adjust
	}
	if g.attrBase == old {
		for _, id := range p.ids {
			reread(id)
		}
		for _, id := range g.attrDirty {
			reread(id)
		}
	} else {
		for id := range nodes {
			reread(int32(id))
		}
	}
	// Gateway sets rarely change between updates; share the old map when
	// its version still matches.
	if old.gwEpoch == g.gwEpoch {
		s.gateways = old.gateways
	} else {
		s.gateways = gatewayMap(nodes)
	}
	s.gwEpoch = g.gwEpoch

	// Ranks: cached when the node set is unchanged, merged incrementally
	// when it grew.
	s.Rank, s.ByRank = g.ranks()
	g.install(s)
	// Park the displaced snapshot's buffers for the patch after next
	// (the caller may still read old this round).
	g.snapSpare = old
	return s
}

// liveRow appends node id's row, built from its live adjacency list, to
// p.
func (g *Graph) liveRow(p *rowPatch, id int32) {
	p.begin(id)
	nd := g.nodes[id]
	if nd.IsDeleted() {
		return
	}
	for l := nd.links; l != nil; l = l.Next {
		if l.usable() {
			p.add(int32(l.To.ID), l.Cost, l.Flags, l.Op, l)
		}
	}
}

// install makes s the graph's memoized snapshot and the base that node
// attribute writes are recorded against.
func (g *Graph) install(s *Snapshot) {
	g.snapCache = s
	g.attrBase = s
	g.attrDirty = g.attrDirty[:0]
}

// markAttr records that n's flags, adjustment or gateway set are being
// written, for SnapshotPatched to re-read. Past a quarter of the nodes
// the record is dropped, and the next patch re-reads every node.
func (g *Graph) markAttr(n *Node) {
	if g.attrBase == nil {
		return
	}
	if len(g.attrDirty) >= len(g.nodes)/4+64 {
		g.attrBase = nil
		g.attrDirty = g.attrDirty[:0]
		return
	}
	g.attrDirty = append(g.attrDirty, int32(n.ID))
}

// rowPatch is a set of replacement CSR rows in ascending node-ID order:
// row ids[i] takes the edges start[i]:start[i+1] (the last one through
// the end) of the parallel edge arrays. Both snapshot patchers fill one
// — the graph's from live adjacency lists, an overlay's from its edits —
// and hand it to Snapshot.patchFrom.
type rowPatch struct {
	ids   []int32
	start []int32
	to    []int32
	cost  []cost.Cost
	flags []LinkFlags
	op    []Op
	link  []*Link
}

func (p *rowPatch) reset() {
	p.ids, p.start = p.ids[:0], p.start[:0]
	p.to, p.cost, p.flags, p.op = p.to[:0], p.cost[:0], p.flags[:0], p.op[:0]
	clear(p.link) // drop the references, keep the buffer
	p.link = p.link[:0]
}

// begin starts row id; ids must come in ascending order.
func (p *rowPatch) begin(id int32) {
	p.ids = append(p.ids, id)
	p.start = append(p.start, int32(len(p.to)))
}

// add appends an edge to the current row.
func (p *rowPatch) add(to int32, c cost.Cost, fl LinkFlags, op Op, l *Link) {
	p.to = append(p.to, to)
	p.cost = append(p.cost, c)
	p.flags = append(p.flags, fl)
	p.op = append(p.op, op)
	p.link = append(p.link, l)
}

// bounds returns row i's edge range.
func (p *rowPatch) bounds(i int) (lo, hi int32) {
	lo, hi = p.start[i], int32(len(p.to))
	if i+1 < len(p.start) {
		hi = p.start[i+1]
	}
	return lo, hi
}

// patchFrom fills s as base with p's rows replaced, for n nodes: each
// maximal run of rows p leaves alone is block-copied from base with one
// copy per array (patchEdges), its row offsets shifted by one constant.
// Node IDs from base's node count up are new; p must list those that
// have edges. The node attribute arrays are copied from base (the
// caller re-reads what changed and fills the new nodes'). With reverse
// set and base's reverse adjacency built, s's is patched from it. s's
// arrays are reused when they are large enough, so a fresh Snapshot
// gets fresh arrays; s must not share any with base. Rank, ByRank,
// gateways and gwEpoch are the caller's.
func (s *Snapshot) patchFrom(base *Snapshot, n int, p *rowPatch, reverse bool) {
	nOld := len(base.Row) - 1
	edges := len(base.To) + len(p.to)
	for _, id := range p.ids {
		if int(id) < nOld {
			edges -= int(base.Row[id+1] - base.Row[id])
		}
	}
	s.Row = resize(s.Row, n+1)
	s.To = resize(s.To, edges)
	s.EdgeCost = resize(s.EdgeCost, edges)
	s.EdgeFlags = resize(s.EdgeFlags, edges)
	s.EdgeOp = resize(s.EdgeOp, edges)
	s.EdgeLink = resize(s.EdgeLink, edges)
	s.NodeFlags = resize(s.NodeFlags, n)
	s.Adjust = resize(s.Adjust, n)
	s.rowsRebuilt = len(p.ids)
	s.revOnce = sync.Once{}
	s.revReady.Store(false)
	s.revPatched = reverse && base.revReady.Load()

	// Every step reads only base and p and writes its own arrays, and
	// each is a memory-bound block copy, so the link pointers and the
	// reverse adjacency are copied on a second goroutine beside the
	// rest.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		patchEdges(s.EdgeLink, base.EdgeLink, p.link, base, p)
		if s.revPatched {
			s.patchReverse(base, p, n, edges)
		}
	}()
	e, next := int32(0), 0
	for i, id := range p.ids {
		if hi := min(int(id), nOld); next < hi {
			shift(s.Row[next:hi], base.Row[next:hi], e-base.Row[next])
			e += base.Row[hi] - base.Row[next]
		}
		for k := max(next, nOld); k < int(id); k++ {
			s.Row[k] = e // a new node p does not list: no edges
		}
		s.Row[id] = e
		lo, hi := p.bounds(i)
		e += hi - lo
		next = int(id) + 1
	}
	if next < nOld {
		shift(s.Row[next:nOld], base.Row[next:nOld], e-base.Row[next])
		e += base.Row[nOld] - base.Row[next]
	}
	for k := max(next, nOld); k <= n; k++ {
		s.Row[k] = e
	}
	patchEdges(s.To, base.To, p.to, base, p)
	patchEdges(s.EdgeCost, base.EdgeCost, p.cost, base, p)
	patchEdges(s.EdgeFlags, base.EdgeFlags, p.flags, base, p)
	patchEdges(s.EdgeOp, base.EdgeOp, p.op, base, p)
	copy(s.NodeFlags, base.NodeFlags)
	copy(s.Adjust, base.Adjust)
	wg.Wait()
	if s.revPatched {
		s.revOnce.Do(func() {}) // complete: Reverse must not rebuild it
	}
}

// patchEdges fills dst, one of a patched snapshot's edge arrays, from
// src, base's matching array, and add, p's: base's rows between p's
// are copied in one block per run.
func patchEdges[T any](dst, src, add []T, base *Snapshot, p *rowPatch) {
	nOld := len(base.Row) - 1
	e, next := 0, 0
	for i, id := range p.ids {
		if hi := min(int(id), nOld); next < hi {
			e += copy(dst[e:], src[base.Row[next]:base.Row[hi]])
		}
		lo, hi := p.bounds(i)
		e += copy(dst[e:], add[lo:hi])
		next = int(id) + 1
	}
	if next < nOld {
		copy(dst[e:], src[base.Row[next]:base.Row[nOld]])
	}
}

// shift sets dst[k] = src[k] + d.
func shift(dst, src []int32, d int32) {
	if d == 0 {
		copy(dst, src)
		return
	}
	for k, x := range src {
		dst[k] = x + d
	}
}

// inEdge is one edge of a replaced row, keyed for the reverse patch.
type inEdge struct{ to, from int32 }

// patchReverse derives s's reverse adjacency, for n nodes and edges
// edges, from base's, which must be built, as patchFrom replaces p's
// rows. Only the in-lists of the
// replaced rows' targets, old and new, can differ: each becomes base's
// list without the replaced sources, merged by source ID with the
// replaced rows' new edges into it. Every other in-list is block-copied
// in maximal runs, as patchFrom copies rows. The result equals
// buildReverse's, array for array.
func (s *Snapshot) patchReverse(base *Snapshot, p *rowPatch, n, edges int) {
	nOld := len(base.Row) - 1
	bRow, bFrom := base.revRow, base.revFrom

	var hit []int32
	in := make([]inEdge, 0, len(p.to))
	for i, id := range p.ids {
		if int(id) < nOld {
			hit = append(hit, base.To[base.Row[id]:base.Row[id+1]]...)
		}
		lo, hi := p.bounds(i)
		for x := lo; x < hi; x++ {
			in = append(in, inEdge{p.to[x], id})
			hit = append(hit, p.to[x])
		}
	}
	slices.Sort(hit)
	hit = slices.Compact(hit)
	slices.SortFunc(in, func(a, b inEdge) int {
		return cmp.Or(cmp.Compare(a.to, b.to), cmp.Compare(a.from, b.from))
	})

	row := resize(s.revRow, n+1)
	from := resize(s.revFrom, edges)
	f, next := int32(0), 0
	copyLists := func(end int) {
		if hi := min(end, nOld); next < hi {
			lo, up := bRow[next], bRow[hi]
			copy(from[f:], bFrom[lo:up])
			shift(row[next:hi], bRow[next:hi], f-lo)
			f += up - lo
		}
		for k := max(next, nOld); k < end; k++ {
			row[k] = f
		}
	}
	j := 0 // cursor into in
	for _, v := range hit {
		copyLists(int(v))
		row[v] = f
		var old []int32
		if int(v) < nOld {
			old = bFrom[bRow[v]:bRow[v+1]]
		}
		k := 0 // cursor into p.ids: old is ascending, so k only advances
		for _, u := range old {
			for k < len(p.ids) && p.ids[k] < u {
				k++
			}
			if k < len(p.ids) && p.ids[k] == u {
				continue // a replaced row: its edges come from in
			}
			for ; j < len(in) && in[j].to == v && in[j].from < u; j++ {
				from[f] = in[j].from
				f++
			}
			from[f] = u
			f++
		}
		for ; j < len(in) && in[j].to == v; j++ {
			from[f] = in[j].from
			f++
		}
		next = int(v) + 1
	}
	copyLists(n)
	row[n] = f
	s.revRow, s.revFrom = row, from
	s.revReady.Store(true)
}

// resize returns s with length n, for a caller that overwrites every
// element. It reuses s's capacity when that fits; a recycled buffer that
// falls short is reallocated with 25% headroom — patched snapshots grow
// by a node or two per generation on a watched map, and exact-fit
// buffers would defeat the spare-buffer recycling on every single patch
// — while a first allocation is exact.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	if cap(s) == 0 {
		return make([]T, n)
	}
	return make([]T, n, n+n/4)
}
