package mapper

// Back links (the paper's "by implication" routes). A host that no
// path reaches, but that declares a usable, ordinary link to a mapped
// neighbor nb, gets the reverse link nb→n invented, unless a link
// nb→n already exists (declared, even if deleted, or added by a what-if
// overlay). The invented link copies its template: the first edge of
// n's snapshot row that can donate one to nb. A full run invents in
// rounds: each round walks the hosts still unmapped, in node-ID order,
// invents from every mapped neighbor, and drains; round r maps exactly
// the labels of phase r (label.phase).
//
// So a back link nb→n of a full run has phase(n) = phase(nb) + 1, and
// the invented set is a function of the phases: the pairs with a
// template, no blocking link, and that phase step. Warm runs keep the
// previous run's links and bring that set up to date instead of
// re-inventing it (warmBackLinks).

import (
	"slices"

	"pathalias/internal/graph"
)

// pairKey packs the (from, to) node IDs of a back link.
func pairKey(from, to int32) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

// donates reports whether snapshot edge e can be a back link's
// template: an ordinary link (not an alias, not itself a back link)
// into an undeleted host. Its source must be undeleted too; the rows of
// deleted nodes hold no edges, unless a what-if overlay added one.
func (m *machine) donates(e int32) bool {
	s := m.snap
	return s.EdgeFlags[e]&(graph.LAlias|graph.LBack) == 0 && s.NodeFlags[s.To[e]]&graph.FDeleted == 0
}

// template returns the index of the first edge of n's row that can
// donate a back link nb→n, or -1.
func (m *machine) template(n, nb int32) int32 {
	s := m.snap
	if s.NodeFlags[n]&graph.FDeleted != 0 {
		return -1
	}
	for e := s.Row[n]; e < s.Row[n+1]; e++ {
		if s.To[e] == nb && m.donates(e) {
			return e
		}
	}
	return -1
}

// blocked reports whether a link nb→n exists — declared (a deleted
// declaration still counts) or added by the what-if overlay — so that
// nb→n needs no back link.
func (m *machine) blocked(nb, n int32) bool {
	from, to := m.snap.Nodes[nb], m.snap.Nodes[n]
	if m.edits != nil {
		return m.edits.FindLink(m.g, from, to) != nil
	}
	return m.g.FindLink(from, to) != nil
}

// invent adds the back link nb→n, n's template edge e turned around, to
// the overlay and relaxes it from nb's mapped labels.
func (m *machine) invent(nb, n, e int32) *graph.Link {
	s := m.snap
	back := &graph.Link{From: s.Nodes[nb], To: s.Nodes[n], Cost: s.EdgeCost[e], Op: s.EdgeOp[e], Flags: graph.LBack}
	m.overlayIdx[pairKey(nb, n)] = back
	m.overlay[nb] = append(m.overlay[nb], back)
	m.revExtra[n] = append(m.revExtra[n], nb)
	for li := m.slot(nb); li < m.slot(nb+1); li++ {
		if nl := &m.labels[li]; nl.used && nl.state == graph.Mapped {
			m.relax(nl, n, back.Cost, back.Flags, back.Op, back)
		}
	}
	return back
}

// backLinkPass is a full run's back-link rounds: it invents reverse
// links for unreachable hosts and drains, until a round invents
// nothing. Each round walks the nodes left unmapped by the previous one
// in ascending ID order, so Result.Invented lists the links in the
// order the paper's pass creates them.
func (m *machine) backLinkPass() {
	s := m.snap
	var cands []int32
	for id := range int32(len(s.Nodes)) {
		if !m.nodeMapped(id) {
			cands = append(cands, id)
		}
	}
	for {
		invented := false
		k := 0
		for _, n := range cands {
			if m.nodeMapped(n) {
				continue
			}
			cands[k] = n
			k++
			if s.NodeFlags[n]&graph.FDeleted != 0 {
				continue
			}
			for e := s.Row[n]; e < s.Row[n+1]; e++ {
				nb := s.To[e]
				if !m.donates(e) || !m.nodeMapped(nb) ||
					m.overlayIdx[pairKey(nb, n)] != nil || m.blocked(nb, n) {
					continue
				}
				m.invented = append(m.invented, m.invent(nb, n, e))
				invented = true
			}
		}
		cands = cands[:k]
		if !invented {
			return
		}
		m.drain()
	}
}

// stands reports whether back link l still has a template with its
// cost and operator, and nothing blocks it: what only the engine's
// events (LinkChanged, MarkNodeDirty) can change.
func (m *machine) stands(l *graph.Link) bool {
	nb, n := int32(l.From.ID), int32(l.To.ID)
	e := m.template(n, nb)
	return e >= 0 && m.snap.EdgeCost[e] == l.Cost && m.snap.EdgeOp[e] == l.Op && !m.blocked(nb, n)
}

// wants reports whether the labels call for a back link nb→n, its
// template aside: nb has a path and n has none in nb's phase or an
// earlier one. Once a drain has relaxed an existing link, that holds
// exactly when phase(n) = phase(nb) + 1.
func (m *machine) wants(nb, n int32) bool {
	f := &m.labels[m.slot(nb)]
	if !f.hasPath() {
		return false
	}
	t := &m.labels[m.slot(n)]
	return !t.hasPath() || t.phase > f.phase
}

// dropBack removes back link l from the overlay and resets the labels
// riding it. It returns how many labels it reset.
func (m *machine) dropBack(l *graph.Link) (count int) {
	nb, n := int32(l.From.ID), int32(l.To.ID)
	delete(m.overlayIdx, pairKey(nb, n))
	m.overlay[nb] = slices.DeleteFunc(m.overlay[nb], func(x *graph.Link) bool { return x == l })
	if len(m.overlay[nb]) == 0 {
		delete(m.overlay, nb)
	}
	m.revExtra[n] = slices.DeleteFunc(m.revExtra[n], func(x int32) bool { return x == nb })
	if len(m.revExtra[n]) == 0 {
		delete(m.revExtra, n)
	}
	for li := m.slot(n); li < m.slot(n+1); li++ {
		if m.via[li] == l {
			c, _ := m.invalidateTree(li, -1)
			count += c
		}
	}
	return count
}

// dropStale drops the back links on the pairs ab and ba that no longer
// stand (see stands) and returns how many labels that reset.
func (m *machine) dropStale(a, b int32) (count int) {
	for _, k := range [2]uint64{pairKey(a, b), pairKey(b, a)} {
		if l := m.overlayIdx[k]; l != nil && !m.stands(l) {
			count += m.dropBack(l)
		}
	}
	return count
}

// backAdd is a back link the warm check decided to invent: nb→n from
// n's template edge e.
type backAdd struct{ nb, n, e int32 }

// warmBackLinks brings a warm run's back links in line with its labels
// once the drain is done. Under the phase-first order (better) the
// links the previous run invented stay valid wherever nothing changed:
// a link nb→n stands while its template does, nothing blocks it, and
// phase(n) = phase(nb) + 1. So the check looks only at what can have
// moved: the pairs and nodes the engine reported (evPairs, evNodes) and
// the nodes whose phase changed since the last check (changedPh). It
// decides on the drained labels first and acts after — drops reset
// their riders, inventions relax — then drains again, until a check
// finds nothing to do. Each check's phases are recorded before it acts,
// so whatever its actions move is looked at again by the next one.
func (m *machine) warmBackLinks() {
	for first := true; ; first = false {
		m.drops, m.adds = m.drops[:0], m.adds[:0]
		if first {
			for _, p := range m.evPairs {
				m.decide(p[0], p[1])
				m.decide(p[1], p[0])
			}
			for _, x := range m.evNodes {
				m.decideNode(x, true)
			}
		}
		for i, li := range m.changed {
			if ph := m.labels[li].pathPhase(); ph != m.changedPh[i] {
				m.changedPh[i] = ph
				m.decideNode(m.labels[li].id, false)
			}
		}
		if len(m.drops) == 0 && len(m.adds) == 0 {
			return
		}
		for _, l := range m.drops {
			if m.overlayIdx[pairKey(int32(l.From.ID), int32(l.To.ID))] == l {
				m.dropBack(l)
			}
		}
		for _, a := range m.adds {
			if m.overlayIdx[pairKey(a.nb, a.n)] == nil {
				m.invent(a.nb, a.n, a.e)
			}
		}
		m.drain()
	}
}

// decide checks the pair nb→n in full: an existing link that is not
// wanted, lost its template or is blocked is dropped, and a wanted one
// is invented from the current template (a re-costed template does
// both).
func (m *machine) decide(nb, n int32) {
	have := m.overlayIdx[pairKey(nb, n)]
	want := m.wants(nb, n)
	if have != nil {
		if want && m.stands(have) {
			return
		}
		m.drops = append(m.drops, have)
	}
	if want {
		m.propose(nb, n)
	}
}

// propose queues the back link nb→n for invention when n has a
// template to nb and nothing blocks it.
func (m *machine) propose(nb, n int32) {
	if e := m.template(n, nb); e >= 0 && !m.blocked(nb, n) {
		m.adds = append(m.adds, backAdd{nb, n, e})
	}
}

// decideNode checks every back link node x takes part in, and every
// pair it could gain one on. static says an event may have changed
// x's templates or blocking links, so its existing links are checked
// in full; otherwise only x's phase moved, and they are checked against
// the phases alone.
func (m *machine) decideNode(x int32, static bool) {
	check := func(nb, n int32) {
		if static {
			m.decide(nb, n)
		} else if !m.wants(nb, n) {
			m.drops = append(m.drops, m.overlayIdx[pairKey(nb, n)])
		}
	}
	for _, nb := range m.revExtra[x] {
		check(nb, x)
	}
	for _, l := range m.overlay[x] {
		check(x, int32(l.To.ID))
	}
	// Back links into x, from its templates, first edge per neighbor.
	s := m.snap
	if s.NodeFlags[x]&graph.FDeleted == 0 {
		for e := s.Row[x]; e < s.Row[x+1]; e++ {
			nb := s.To[e]
			if m.donates(e) && m.overlayIdx[pairKey(nb, x)] == nil && m.wants(nb, x) && !m.blocked(nb, x) {
				m.adds = append(m.adds, backAdd{nb, x, e})
			}
		}
	}
	// Back links out of x, to the hosts with a template into it.
	if m.labels[m.slot(x)].hasPath() {
		for i := m.revRow[x]; i < m.revRow[x+1]; i++ {
			if y := m.revFrom[i]; m.overlayIdx[pairKey(x, y)] == nil && m.wants(x, y) {
				m.propose(x, y)
			}
		}
	}
}
