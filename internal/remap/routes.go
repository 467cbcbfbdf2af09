package remap

// Incremental route derivation, per vantage. printer.Routes re-derives
// every format string by a full tree traversal; a vantage instead keeps
// one frame per label — the traversal state printer passes down its
// recursion — and recomputes frames only for labels whose value changed,
// plus their descendants (a route string depends on every ancestor's
// frame). The resulting rows are kept in printer's output order as two
// parallel arrays: the entries themselves, which a Result hands out
// as they are, and each row's label bookkeeping. An update is a sorted
// merge into the spare pair of arrays: drop the dirty labels' old rows,
// merge in their new ones, block-copying the runs in between.
//
// The frame rules are a transliteration of printer.extend/emit; the
// randomized equivalence tests hold the two byte-identical.

import (
	"cmp"
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

// rowMeta is an output row's bookkeeping for patching, parallel to its
// entry.
type rowMeta struct {
	label int32
	odd   bool // printed under a name that is not the node's own (domain-qualified)
}

// entryRow is one output entry with its bookkeeping, as derived before
// it is merged into the row arrays.
type entryRow struct {
	e printer.Entry
	rowMeta
}

// rowLess is the canonical output order: host name, then main entries
// before domain-qualified ones (the printer's merge rule), then name
// rank for determinism among qualified collisions.
func (v *vantage) rowLess(rank []int32, ha string, a rowMeta, hb string, b rowMeta) bool {
	if ha != hb {
		return ha < hb
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

// sortRows sorts rows into the canonical order.
func (v *vantage) sortRows(rank []int32, rows []entryRow) {
	sort.Slice(rows, func(i, j int) bool {
		return v.rowLess(rank, rows[i].e.Host, rows[i].rowMeta, rows[j].e.Host, rows[j].rowMeta)
	})
}

// swapRows makes the given spare arrays the live ones: the
// arrays handed out with the latest Result become the spare, which the
// next change overwrites — why a Result's Entries stay valid only until
// the second recompute of its vantage that changes a row.
func (v *vantage) swapRows(entries []printer.Entry, meta []rowMeta) {
	v.spareEntries, v.spareMeta = v.entries, v.meta
	v.entries, v.meta = entries, meta
}

// spareRows returns the spare arrays with room for n rows, reallocated
// with 25% headroom when short: the row count creeps up by a few
// entries per host-add generation, and an exact fit would force the
// allocation on every patch.
func (v *vantage) spareRows(n int) ([]printer.Entry, []rowMeta) {
	if cap(v.spareEntries) < n || cap(v.spareMeta) < n {
		return make([]printer.Entry, n, n+n/4), make([]rowMeta, n, n+n/4)
	}
	return v.spareEntries[:n], v.spareMeta[:n]
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

	root := 2 * v.mc.SourceID()
	rootView := v.mc.Label(root)
	if rootView.Node == nil || rootView.State != graph.Mapped {
		v.swapRows(v.spareRows(0))
		return
	}
	rank := e.snap.Rank
	v.frames[root] = frame{route: "%s", name: rootView.Node.Name, valid: true}
	var rows []entryRow
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
			rows = append(rows, entryRow{en, rowMeta{label: li, odd: en.Host != lv.Node.Name}})
		}
		stack = v.mc.AppendChildren(stack, li)
	}
	v.sortRows(rank, rows)
	entries, meta := v.spareRows(len(rows))
	for i, r := range rows {
		entries[i], meta[i] = r.e, r.rowMeta
	}
	v.swapRows(entries, meta)
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
			newRows = append(newRows, entryRow{en, rowMeta{label: li, odd: en.Host != lv.Node.Name}})
		}
	}
	v.sortRows(rank, newRows)

	// Merge: old rows minus dirty labels, plus the recomputed rows, into
	// the spare arrays. Each new row goes before the first old row it
	// sorts below (dropped rows kept their place in the old order, so a
	// binary search over all old rows finds it); the clean runs between
	// those points and the dirty rows are block-copied.
	old, oldMeta := v.entries, v.meta
	entries, meta := v.spareRows(len(old) + len(newRows))
	k, i := 0, 0 // write cursor; next old row
	// copyClean copies the clean old rows in [i, end).
	copyClean := func(end int) {
		for i < end {
			run := i
			for run < end && v.frameDirty[oldMeta[run].label] != epoch {
				run++
			}
			copy(entries[k:], old[i:run])
			copy(meta[k:], oldMeta[i:run])
			k += run - i
			i = run
			for i < end && v.frameDirty[oldMeta[i].label] == epoch {
				i++ // superseded (or gone)
			}
		}
	}
	for _, r := range newRows {
		at := i + sort.Search(len(old)-i, func(x int) bool {
			return v.rowLess(rank, r.e.Host, r.rowMeta, old[i+x].Host, oldMeta[i+x])
		})
		copyClean(at)
		entries[k], meta[k] = r.e, r.rowMeta
		k++
	}
	copyClean(len(old))
	v.swapRows(entries[:k], meta[:k])
	return true
}

// resultEntries returns the entries a Result hands out: the live row
// array itself, or under SortByCost a by-cost copy, made once per route
// generation.
func (v *vantage) resultEntries(e *core) []printer.Entry {
	if !e.opts.Printer.SortByCost {
		return v.entries
	}
	if v.byCost == nil || v.byCostGen != v.routeGen {
		v.byCost = slices.Clone(v.entries)
		slices.SortFunc(v.byCost, func(a, b printer.Entry) int {
			return cmp.Or(cmp.Compare(a.Cost, b.Cost), strings.Compare(a.Host, b.Host))
		})
		v.byCostGen = v.routeGen
	}
	return v.byCost
}
