package remap

// Incremental route derivation, per vantage. printer.Routes re-derives
// every format string by a full tree traversal; a vantage instead keeps
// one frame per label — the traversal state printer passes down its
// recursion — and recomputes frames only for labels whose value changed,
// plus their descendants (a route string depends on every ancestor's
// frame). The resulting entries live in one array kept in printer's
// output order, so an update is a sorted merge: drop the dirty labels'
// old rows, merge in their new ones.
//
// The frame rules are a transliteration of printer.extend/emit; the
// randomized equivalence tests hold the two byte-identical.

import (
	"slices"
	"sort"
	"strings"

	"pathalias/internal/cost"
	"pathalias/internal/graph"
	"pathalias/internal/mapper"
	"pathalias/internal/printer"
)

// frame is the per-label traversal state (printer.frame, persisted).
type frame struct {
	route     string
	pct       int32 // byte offset of "%s" within route
	name      string
	suffix    string
	subdomain bool
	firstHop  cost.Cost
	valid     bool
}

// entryRow is one output entry with the bookkeeping for patching.
type entryRow struct {
	e     printer.Entry
	label int32
	odd   bool // printed under a name that is not the node's own (domain-qualified)
}

// rowLess is the canonical output order: host name, then main entries
// before domain-qualified ones (the printer's merge rule), then name
// rank for determinism among qualified collisions.
func (v *vantage) rowLess(rank []int32, a, b entryRow) bool {
	if a.e.Host != b.e.Host {
		return a.e.Host < b.e.Host
	}
	if a.odd != b.odd {
		return !a.odd
	}
	ra := rank[v.mc.Label(a.label).Node.ID]
	rb := rank[v.mc.Label(b.label).Node.ID]
	if ra != rb {
		return ra < rb
	}
	return a.label < b.label
}

// extendFrame computes a child's frame from its parent's —
// printer.extend plus the firstHop bookkeeping of printer.visit.
func extendFrame(parent, c mapper.LabelView, pf *frame) frame {
	l := c.Via
	var nf frame
	switch {
	case l == nil:
		nf = frame{route: pf.route, pct: pf.pct, name: c.Node.Name}

	case l.Flags&graph.LAlias != 0:
		// Same machine, another name: identical route, own name.
		nf = frame{route: pf.route, pct: pf.pct, name: c.Node.Name}

	case c.Node.IsNet():
		// Entering a network or domain: the route to a network is the
		// route to its parent. A domain starts or continues a
		// name-accretion chain.
		nf = frame{route: pf.route, pct: pf.pct, name: c.Node.Name}
		if c.Node.IsDomain() {
			if l.Flags&graph.LNetMember != 0 && parent.Node.IsDomain() {
				nf.suffix = c.Node.Name + pf.suffix
				nf.name = nf.suffix
				nf.subdomain = true
			} else {
				nf.suffix = c.Node.Name
			}
		}

	case l.Flags&graph.LNetMember != 0 && parent.Node.IsDomain():
		// Host member of a domain: splice its fully qualified name.
		name := c.Node.Name + pf.suffix
		route, pct := printer.Splice(pf.route, int(pf.pct), name, c.ViaOp)
		nf = frame{route: route, pct: int32(pct), name: name}

	default:
		route, pct := printer.Splice(pf.route, int(pf.pct), c.Node.Name, c.ViaOp)
		nf = frame{route: route, pct: int32(pct), name: c.Node.Name}
	}
	if parent.Parent < 0 && l != nil {
		nf.firstHop = l.Cost
	} else {
		nf.firstHop = pf.firstHop
	}
	nf.valid = true
	return nf
}

// entryFor applies printer.emit's rules to one label/frame pair.
func (v *vantage) entryFor(e *core, li int32, f *frame) (printer.Entry, bool) {
	lv := v.mc.Label(li)
	n := lv.Node
	if lv.State != graph.Mapped || n.IsPrivate() || n.IsDeleted() {
		return printer.Entry{}, false
	}
	c := lv.Cost
	if e.opts.Printer.FirstHopCost {
		c = f.firstHop
	}
	if n.IsNet() {
		if !n.IsDomain() || f.subdomain {
			return printer.Entry{}, false
		}
		return printer.Entry{Host: f.name, Route: f.route, Cost: c}, true
	}
	if e.opts.Printer.DomainsOnly {
		return printer.Entry{}, false
	}
	return printer.Entry{Host: f.name, Route: f.route, Cost: c}, true
}

// rebuildRoutes derives every frame and entry from scratch (full-re-map
// path): a DFS over the machine's shortest-path tree.
func (v *vantage) rebuildRoutes(e *core) {
	nl := v.mc.NumLabels()
	if cap(v.frames) >= nl {
		v.frames = v.frames[:nl]
		clear(v.frames)
	} else {
		v.frames = make([]frame, nl)
	}
	if cap(v.frameDirty) >= nl {
		v.frameDirty = v.frameDirty[:nl]
	} else {
		v.frameDirty = make([]uint32, nl)
		v.frameEpoch = 0
	}
	v.rows = v.rows[:0]

	root := 2 * v.mc.SourceID()
	rootView := v.mc.Label(root)
	if rootView.Node == nil || rootView.State != graph.Mapped {
		return
	}
	rank := e.snap.Rank
	v.frames[root] = frame{route: "%s", name: rootView.Node.Name, valid: true}
	stack := []int32{root}
	for len(stack) > 0 {
		li := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lv := v.mc.Label(li)
		if li != root {
			p := v.mc.Label(lv.Parent)
			v.frames[li] = extendFrame(p, lv, &v.frames[lv.Parent])
		}
		if en, ok := v.entryFor(e, li, &v.frames[li]); ok {
			v.rows = append(v.rows, entryRow{e: en, label: li, odd: en.Host != lv.Node.Name})
		}
		stack = v.mc.AppendChildren(stack, li)
	}
	sort.Slice(v.rows, func(i, j int) bool { return v.rowLess(rank, v.rows[i], v.rows[j]) })
}

// patchRoutes recomputes frames and entries for the changed labels and
// their descendants after a warm run. netFlips lists nodes whose IsNet
// flag flipped across the replayed generations (a print-only effect the
// label diff cannot see). It reports whether any entry may have changed
// (false = the previous rows are provably still exact).
func (v *vantage) patchRoutes(e *core, changed []int32, netFlips []int32) bool {
	if nl := v.mc.NumLabels(); len(v.frames) < nl {
		// The label array grew (rank re-basing): fresh labels start with
		// no frame and clean dirty stamps. Existing frames stay valid —
		// node IDs and label slots are stable under growth.
		v.frames = append(v.frames, make([]frame, nl-len(v.frames))...)
		v.frameDirty = append(v.frameDirty, make([]uint32, nl-len(v.frameDirty))...)
	}
	v.frameEpoch++
	epoch := v.frameEpoch
	var dirty []int32
	mark := func(li int32) bool {
		if v.frameDirty[li] == epoch {
			return false
		}
		v.frameDirty[li] = epoch
		dirty = append(dirty, li)
		return true
	}
	stack := make([]int32, 0, len(changed)*2)
	for _, li := range changed {
		if mark(li) {
			stack = append(stack, li)
		}
	}
	for _, id := range netFlips {
		li := 2 * id
		if v.mc.Label(li).Node != nil && mark(li) {
			stack = append(stack, li)
		}
	}
	// Descendants in the new tree inherit route changes.
	for len(stack) > 0 {
		li := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := len(stack)
		stack = v.mc.AppendChildren(stack, li)
		kept := stack[:n]
		for _, c := range stack[n:] {
			if mark(c) {
				kept = append(kept, c)
			}
		}
		stack = kept
	}

	if len(dirty) == 0 {
		return false // nothing changed: the previous rows are exact
	}

	// Recompute top-down: parents strictly precede children in hop count.
	slices.SortFunc(dirty, func(a, b int32) int {
		return int(v.mc.Label(a).Hops) - int(v.mc.Label(b).Hops)
	})
	rank := e.snap.Rank
	var newRows []entryRow
	root := 2 * v.mc.SourceID()
	for _, li := range dirty {
		lv := v.mc.Label(li)
		if lv.Node == nil || lv.State != graph.Mapped {
			v.frames[li] = frame{}
			continue
		}
		if li == root {
			v.frames[li] = frame{route: "%s", name: lv.Node.Name, valid: true}
		} else {
			v.frames[li] = extendFrame(v.mc.Label(lv.Parent), lv, &v.frames[lv.Parent])
		}
		if en, ok := v.entryFor(e, li, &v.frames[li]); ok {
			newRows = append(newRows, entryRow{e: en, label: li, odd: en.Host != lv.Node.Name})
		}
	}
	sort.Slice(newRows, func(i, j int) bool { return v.rowLess(rank, newRows[i], newRows[j]) })

	// Merge: old rows minus dirty labels, plus the recomputed rows. The
	// spare buffer ping-pongs with the live one to keep the merge
	// allocation-free at steady state.
	merged := v.rowsSpare[:0]
	if need := len(v.rows) + len(newRows); cap(merged) < need {
		// 25% headroom: the row count creeps up by a few entries per
		// host-add generation, and an exact-fit spare would force this
		// allocation every single patch.
		merged = make([]entryRow, 0, need+need/4)
	}
	j := 0
	for _, r := range v.rows {
		if v.frameDirty[r.label] == epoch {
			continue // superseded (or gone)
		}
		for j < len(newRows) && v.rowLess(rank, newRows[j], r) {
			merged = append(merged, newRows[j])
			j++
		}
		merged = append(merged, r)
	}
	merged = append(merged, newRows[j:]...)
	v.rowsSpare = v.rows
	v.rows = merged
	return len(dirty) > 0
}

// assembleEntries renders the row array into the Result's entry slice.
// The two entry buffers ping-pong: the one handed out with the previous
// Result is reused for the next-but-one recompute, which is why a
// Result's Entries are documented as valid only until the second
// recompute of its vantage.
func (v *vantage) assembleEntries(e *core) []printer.Entry {
	out := v.entriesSpare[:0]
	if cap(out) < len(v.rows) {
		out = make([]printer.Entry, 0, len(v.rows)+len(v.rows)/4)
	}
	for _, r := range v.rows {
		out = append(out, r.e)
	}
	v.entriesSpare = v.entriesLast
	v.entriesLast = out
	if e.opts.Printer.SortByCost {
		slices.SortFunc(out, func(a, b printer.Entry) int {
			if a.Cost != b.Cost {
				if a.Cost < b.Cost {
					return -1
				}
				return 1
			}
			return strings.Compare(a.Host, b.Host)
		})
	}
	return out
}
