package graph

import (
	"fmt"
	"slices"
	"testing"

	"pathalias/internal/cost"
)

// fuzzGraph is a small graph for the snapshot fuzzer: hosts in a ring
// with chords, a network with some of them as members, and a domain.
func fuzzGraph() (*Graph, *Node) {
	g := New()
	var hosts []*Node
	for i := range 12 {
		hosts = append(hosts, g.Ref(fmt.Sprintf("h%d", i)))
	}
	for i, h := range hosts {
		g.AddLink(h, hosts[(i+1)%len(hosts)], cost.Cost(100+i), DefaultOp, 0)
		if i%3 == 0 {
			g.AddLink(h, hosts[(i+5)%len(hosts)], cost.Cost(300), OpFor('@'), 0)
		}
	}
	net := g.Ref("net")
	g.AddNet(net, []*Node{hosts[1], hosts[4], hosts[7]}, 50, DefaultOp)
	dom := g.Ref(".dom")
	g.AddNet(dom, []*Node{hosts[2], hosts[9]}, 20, DefaultOp)
	return g, net
}

// nthLink returns n's k-th adjacency-list link (modulo its length), or
// nil when n has none.
func nthLink(n *Node, k int) *Link {
	var ls []*Link
	for l := n.links; l != nil; l = l.Next {
		ls = append(ls, l)
	}
	if len(ls) == 0 {
		return nil
	}
	return ls[k%len(ls)]
}

// FuzzSnapshotPatch decodes the input into batches of graph mutations,
// three bytes each, and after every batch holds Graph.SnapshotPatched —
// edge rows, node attributes, gateway sets and the patched reverse
// adjacency — to a fresh Snapshot and buildReverse, array for array. An
// overlay decoded from the same bytes is applied to each patched
// snapshot, and its PatchSnapshot is held to a naive row-by-row rebuild
// and, when patched, its reverse adjacency to a fresh build.
func FuzzSnapshotPatch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 11, 1, 0, 3, 2, 5, 11, 0, 0})
	f.Add([]byte{5, 3, 0, 5, 4, 1, 11, 1, 0, 9, 3, 1, 9, 3, 1, 11, 0, 0, 6, 2, 7, 11, 3, 0})
	f.Add([]byte{8, 2, 0, 8, 5, 1, 7, 6, 0, 11, 1, 0, 12, 4, 2, 13, 1, 1, 11, 2, 0})
	f.Add([]byte{4, 0, 0, 4, 0, 1, 10, 3, 8, 11, 1, 0, 14, 7, 0, 11, 1, 1, 14, 7, 0, 11, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, net := fuzzGraph()
		base := g.Snapshot()
		touched := map[int32]bool{}
		touch := func(n *Node) { touched[int32(n.ID)] = true }
		pick := func(b byte) *Node { return g.nodes[int(b)%len(g.nodes)] }
		batch := 0
		for ; len(data) >= 3; data = data[3:] {
			op, a, b := data[0], data[1], data[2]
			x, y := pick(a), pick(b)
			switch op % 16 {
			case 0: // cost change
				if l := nthLink(x, int(b)); l != nil {
					g.SetLinkCost(l, l.Cost+cost.Cost(b)+1, l.Op)
					touch(x)
				}
			case 1: // operator change
				if l := nthLink(x, int(b)); l != nil {
					g.SetLinkCost(l, l.Cost, OpFor("!@%:"[b%4]))
					touch(x)
				}
			case 2: // link flag change, deletion included
				if l := nthLink(x, int(b)); l != nil {
					g.SetLinkFlags(l, l.Flags^[]LinkFlags{LDead, LDeleted}[b%2])
					touch(x)
				}
			case 3: // link add
				if x != y && g.FindLink(x, y) == nil {
					g.AddLinkAt(x, y, cost.Cost(b)*3, DefaultOp)
					touch(x)
				}
			case 4: // link remove
				if l := nthLink(x, int(b)); l != nil {
					g.RemoveLink(l)
					touch(x)
				}
			case 5: // host add
				h := g.Ref(fmt.Sprintf("new%d-%d", len(g.nodes), b))
				g.AddLinkAt(x, h, cost.Cost(b), DefaultOp)
				if b%2 == 0 {
					g.AddLinkAt(h, y, cost.Cost(b)+7, DefaultOp)
				}
				touch(x)
			case 6: // adjust
				g.SetAdjust(x, cost.Cost(b)*10)
			case 7: // flag change
				g.SetNodeFlags(x, x.Flags^FDead)
			case 8: // gateway grant or removal
				if b%2 == 0 {
					g.AddGateway(net, x)
				} else {
					g.RemoveGateway(net, x)
				}
			case 9: // network member: a parallel edge when x already links net
				entry, member := g.AddNetEdges(net, x, cost.Cost(b), DefaultOp)
				if entry != nil {
					touch(x)
					touch(member.From)
				}
			case 10: // alias pair
				if _, _, created := g.AddAliasEdges(x, y); created {
					touch(x)
					touch(y)
				}
			case 11: // end of batch: patch, then maybe build the reverse
				batch++
				ids := make([]int32, 0, len(touched))
				for id := range touched {
					ids = append(ids, id)
				}
				hadRev := base.revReady.Load()
				s := g.SnapshotPatched(base, ids)
				if err := g.VerifySnapshot(s); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				if rows, patched := s.Rebuilt(); patched != hadRev || rows < len(touched) {
					t.Fatalf("batch %d: Rebuilt() = %d, %v; want >= %d rows, reverse patched %v",
						batch, rows, patched, len(touched), hadRev)
				}
				if a%2 == 1 {
					s.Reverse()
				}
				base = s
				clear(touched)
			case 12: // overlay over the current snapshot
				checkOverlay(t, g, g.Snapshot(), data[1:])
			case 13: // a full snapshot in between: the patch must not trust the attribute record
				g.snapCache = nil
				g.Snapshot()
			case 14: // node deletion flip, with every in-neighbor touched
				g.SetNodeFlags(x, x.Flags^FDeleted)
				touch(x)
				for _, u := range g.nodes {
					for l := u.links; l != nil; l = l.Next {
						if l.To == x {
							touch(u)
						}
					}
				}
			case 15: // domain member: a gateway grant through AddNet
				if dom, ok := g.Lookup(".dom"); ok && !x.IsDomain() {
					g.AddNet(dom, []*Node{x}, cost.Cost(b), DefaultOp)
					touch(x)
					touch(dom)
				}
			}
		}
	})
}

// checkOverlay builds an overlay over base from data (two bytes per
// edit) and holds PatchSnapshot to a naive row-by-row rebuild, and its
// reverse adjacency, patched or built on first use, to a fresh build.
// The parity of len(data) decides whether the view asks for the patch.
func checkOverlay(t *testing.T, g *Graph, base *Snapshot, data []byte) {
	t.Helper()
	ov := NewOverlay()
	nodes := base.Nodes
	for i := 0; i+1 < len(data) && i < 8; i += 2 {
		x := nodes[int(data[i])%len(nodes)]
		y := nodes[int(data[i+1])%len(nodes)]
		lo, hi := base.Row[x.ID], base.Row[x.ID+1]
		switch {
		case data[i+1]%3 == 0 && hi > lo:
			ov.RemoveLink(base.EdgeLink[lo+int32(data[i])%(hi-lo)])
		case data[i+1]%3 == 1 && hi > lo:
			ov.OverrideCost(base.EdgeLink[lo+int32(data[i+1])%(hi-lo)], cost.Cost(data[i])+1)
		case x != y && ov.FindLink(g, x, y) == nil:
			ov.AddLink(x, y, cost.Cost(data[i+1]), DefaultOp)
		}
	}
	hadRev := base.revReady.Load()
	reverse := len(data)%2 == 0
	s := ov.PatchSnapshot(base, reverse)
	want := naiveOverlay(base, ov)
	for _, c := range []error{
		firstDiff("overlay Row", s.Row, want.Row),
		firstDiff("overlay To", s.To, want.To),
		firstDiff("overlay EdgeCost", s.EdgeCost, want.EdgeCost),
		firstDiff("overlay EdgeFlags", s.EdgeFlags, want.EdgeFlags),
		firstDiff("overlay EdgeOp", s.EdgeOp, want.EdgeOp),
		firstDiff("overlay EdgeLink", s.EdgeLink, want.EdgeLink),
		firstDiff("overlay NodeFlags", s.NodeFlags, base.NodeFlags),
		firstDiff("overlay Adjust", s.Adjust, base.Adjust),
	} {
		if c != nil {
			t.Fatal(c)
		}
	}
	if _, patched := s.Rebuilt(); patched != (hadRev && reverse) {
		t.Fatalf("overlay reverse patched = %v, base reverse built %v, patch asked %v", patched, hadRev, reverse)
	}
	row, from := s.Reverse()
	want.buildReverse()
	if err := firstDiff("overlay reverse row", row, want.revRow); err != nil {
		t.Fatal(err)
	}
	if err := firstDiff("overlay reverse from", from, want.revFrom); err != nil {
		t.Fatal(err)
	}
	if hadRev && (&row[0] == &base.revRow[0] || (len(from) > 0 && len(base.revFrom) > 0 && &from[0] == &base.revFrom[0])) {
		t.Fatal("overlay reverse adjacency shares the base's arrays")
	}
}

// naiveOverlay is the overlay view built one row at a time.
func naiveOverlay(base *Snapshot, ov *Overlay) *Snapshot {
	s := &Snapshot{Row: []int32{0}}
	for id := range len(base.Row) - 1 {
		for x := base.Row[id]; x < base.Row[id+1]; x++ {
			l := base.EdgeLink[x]
			if ov.Removed(l) {
				continue
			}
			sh := ov.Shadow(l)
			s.To = append(s.To, base.To[x])
			s.EdgeCost = append(s.EdgeCost, sh.Cost)
			s.EdgeFlags = append(s.EdgeFlags, base.EdgeFlags[x])
			s.EdgeOp = append(s.EdgeOp, base.EdgeOp[x])
			s.EdgeLink = append(s.EdgeLink, sh)
		}
		for _, l := range ov.AddedFrom(int32(id)) {
			s.To = append(s.To, int32(l.To.ID))
			s.EdgeCost = append(s.EdgeCost, l.Cost)
			s.EdgeFlags = append(s.EdgeFlags, l.Flags)
			s.EdgeOp = append(s.EdgeOp, l.Op)
			s.EdgeLink = append(s.EdgeLink, l)
		}
		s.Row = append(s.Row, int32(len(s.To)))
	}
	return s
}

// TestSnapshotPatchReverse pins the reverse patch on a hand-built case:
// a parallel edge, a removed edge, a new node, and an untouched run.
func TestSnapshotPatchReverse(t *testing.T) {
	g, net := fuzzGraph()
	base := g.Snapshot()
	base.Reverse()
	h3 := g.nodes[3]
	h, _ := g.Lookup("h5")
	g.AddNetEdges(net, h3, 9, DefaultOp)                                   // h3 -> net, parallel to nothing yet
	g.AddNetEdges(net, h3, 9, DefaultOp)                                   // and again: parallel edges both ways
	g.RemoveLink(nthLink(h, 0))                                            // h5 loses its ring edge
	nn := g.Ref("fresh")                                                   // appended node
	g.AddLinkAt(h3, nn, 4, DefaultOp)                                      // reached from h3
	ids := []int32{int32(h3.ID), int32(net.ID), int32(h.ID), int32(h3.ID)} // duplicates allowed
	s := g.SnapshotPatched(base, ids)
	if err := g.VerifySnapshot(s); err != nil {
		t.Fatal(err)
	}
	rows, patched := s.Rebuilt()
	if !patched || rows != 4 {
		t.Fatalf("Rebuilt() = %d, %v; want 4 rows (3 touched + 1 appended), reverse patched", rows, patched)
	}
	row, from := s.Reverse()
	in := from[row[net.ID]:row[net.ID+1]]
	if n := slices.Index(in, int32(h3.ID)); n < 0 || n+1 >= len(in) || in[n+1] != int32(h3.ID) {
		t.Errorf("in-list of net %v lacks h3 twice in a row", in)
	}
}
