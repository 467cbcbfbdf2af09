// Package certify checks a finished mapping run against independent
// restatements of the mapper's rules, for tests. It reads only what a
// run leaves behind — the machine's label views and back links, the
// snapshot it ran over, the graph's live adjacency lists and the
// what-if overlay — and shares no code with the relax loop or the
// back-link pass (McConnell, Mehlhorn, Näher and Schweitzer,
// "Certifying algorithms", Computer Science Review 5(2), 2011).
package certify

import (
	"fmt"

	"pathalias/internal/graph"
	"pathalias/internal/mapper"
)

// BackLinks certifies a run's phases and back links. Stratum 0 is
// every node reachable from the source over the snapshot's edges.
// Stratum r seeds each unreached, undeleted host with a template to a
// reached neighbor that no link back to it blocks, and adds what is
// reachable from those seeds. A template is a usable, ordinary link out
// of the host, read the way the paper's pass reads them: declared links
// in list order, less the overlay's removals, at the overlay's costs,
// then the overlay's added links. BackLinks checks that
//   - every node's phase (the least over its mapped labels) is its
//     stratum, and a node is mapped exactly when it has one;
//   - every mapped label's phase is its parent's, plus one when it
//     rides a back link, and the source's is 0;
//   - the machine's back links are exactly the pairs nb→n with n's
//     first template to nb, nothing blocking it, and stratum(n) =
//     stratum(nb) + 1, each at its template's cost and operator;
//   - every label riding a back link rides one the machine holds.
//
// ov is the overlay the run was asked under, or nil.
func BackLinks(mc *mapper.Machine, snap *graph.Snapshot, ov *graph.Overlay) error {
	n := len(snap.Nodes)
	src := mc.SourceID()
	if src < 0 || mc.NumLabels() != int(mc.NodeLabel(int32(n))) {
		return fmt.Errorf("certify: machine holds %d labels for %d nodes (source %d)", mc.NumLabels(), n, src)
	}

	// Strata by breadth-first search, round by round.
	stratum := make([]int32, n)
	for i := range stratum {
		stratum[i] = -1
	}
	var queue []int32
	reach := func(r int32) {
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for e := snap.Row[u]; e < snap.Row[u+1]; e++ {
				if v := snap.To[e]; stratum[v] < 0 {
					stratum[v] = r
					queue = append(queue, v)
				}
			}
		}
	}
	stratum[src] = 0
	queue = append(queue, src)
	reach(0)

	// The links that make a back link needless — an ordinary declared
	// link, even a deleted one (alias and network edges do not count),
	// or one the overlay added — into the hosts stratum 0 misses.
	type pair struct{ from, to int32 }
	blocking := make(map[pair]bool)
	block := func(l *graph.Link) {
		if stratum[l.To.ID] < 0 && l.Flags&(graph.LAlias|graph.LNetMember|graph.LNetEntry) == 0 {
			blocking[pair{int32(l.From.ID), int32(l.To.ID)}] = true
		}
	}
	for id, nd := range snap.Nodes {
		for l := nd.FirstLink(); l != nil; l = l.Next {
			block(l)
		}
		if ov != nil {
			for _, l := range ov.AddedFrom(int32(id)) {
				block(l)
			}
		}
	}
	blocked := func(nb, n *graph.Node) bool { return blocking[pair{int32(nb.ID), int32(n.ID)}] }

	for r := int32(1); ; r++ {
		var seeds []int32
		for id := range n {
			if stratum[id] >= 0 {
				continue
			}
			for _, t := range templates(snap.Nodes[id], ov) {
				if nb := t.To; stratum[nb.ID] >= 0 && !blocked(nb, t.From) {
					seeds = append(seeds, int32(id))
					break
				}
			}
		}
		if len(seeds) == 0 {
			break
		}
		for _, id := range seeds {
			stratum[id] = r
		}
		queue = append(queue, seeds...)
		reach(r)
	}

	// Phases against the strata, and along the tree.
	for id := range n {
		phase := int32(-1)
		for li := mc.NodeLabel(int32(id)); li < mc.NodeLabel(int32(id)+1); li++ {
			lv := mc.Label(li)
			if lv.Node == nil || lv.State != graph.Mapped {
				continue
			}
			if phase < 0 || lv.Phase < phase {
				phase = lv.Phase
			}
			want := int32(0)
			if lv.Parent >= 0 {
				want = mc.Label(lv.Parent).Phase
				if lv.Via.Flags&graph.LBack != 0 {
					want++
				}
			} else if id != int(src) {
				return fmt.Errorf("certify: %s is mapped without a parent", lv.Node.Name)
			}
			if lv.Phase != want {
				return fmt.Errorf("certify: %s has phase %d, its path gives %d", lv.Node.Name, lv.Phase, want)
			}
		}
		if phase != stratum[id] {
			return fmt.Errorf("certify: %s has phase %d, stratum %d", snap.Nodes[id].Name, phase, stratum[id])
		}
	}

	// The back links the rule defines, against the machine's.
	want := make(map[pair]*graph.Link)
	for id := range n {
		if stratum[id] < 1 {
			continue
		}
		for _, t := range templates(snap.Nodes[id], ov) {
			nb := t.To
			p := pair{int32(nb.ID), int32(id)}
			if _, seen := want[p]; seen || stratum[nb.ID] != stratum[id]-1 || blocked(nb, t.From) {
				continue
			}
			want[p] = t
		}
	}
	have := make(map[*graph.Link]bool)
	for l := range mc.BackLinks() {
		p := pair{int32(l.From.ID), int32(l.To.ID)}
		t, ok := want[p]
		switch {
		case l.Flags != graph.LBack:
			return fmt.Errorf("certify: back link %v has flags %b", l, l.Flags)
		case !ok:
			return fmt.Errorf("certify: back link %v is not in the rule's set", l)
		case t == nil:
			return fmt.Errorf("certify: back link %v is held twice", l)
		case l.Cost != t.Cost || l.Op != t.Op:
			return fmt.Errorf("certify: back link %v does not copy its template %v", l, t)
		}
		want[p] = nil
		have[l] = true
	}
	for p, t := range want {
		if t != nil {
			return fmt.Errorf("certify: back link %s->%s (template %v) is missing",
				snap.Nodes[p.from].Name, snap.Nodes[p.to].Name, t)
		}
	}
	for li := range int32(mc.NumLabels()) {
		if lv := mc.Label(li); lv.Node != nil && lv.State == graph.Mapped &&
			lv.Via != nil && lv.Via.Flags&graph.LBack != 0 && !have[lv.Via] {
			return fmt.Errorf("certify: %s rides back link %v, which the machine no longer holds", lv.Node.Name, lv.Via)
		}
	}
	return nil
}

// templates returns n's back-link templates in the order the paper's
// pass reads them: its usable, ordinary links not removed by the
// overlay, at their overlay cost, then the overlay's added links into
// undeleted hosts.
func templates(n *graph.Node, ov *graph.Overlay) []*graph.Link {
	if n.IsDeleted() {
		return nil
	}
	var out []*graph.Link
	for l := n.FirstLink(); l != nil; l = l.Next {
		if !l.Usable() || l.Flags&(graph.LAlias|graph.LBack) != 0 {
			continue
		}
		t := l
		if ov != nil {
			if ov.Removed(l) {
				continue
			}
			t = ov.Shadow(l) // a shadow has no Next: keep walking l
		}
		out = append(out, t)
	}
	if ov != nil {
		for _, l := range ov.AddedFrom(int32(n.ID)) {
			if !l.To.IsDeleted() {
				out = append(out, l)
			}
		}
	}
	return out
}
