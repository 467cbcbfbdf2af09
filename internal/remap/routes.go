package remap

// Incremental route derivation, per vantage. printer.Derive derives
// every format string by a full traversal of the machine's tree. A
// route's text is a pure function of its label chain, so a vantage
// stores no frames: after a warm run it recomputes frames only for the
// labels whose value changed, plus their descendants (a route string
// depends on every ancestor's frame), through the printer's own Extend
// and Emit, in a table local to the pass. A recomputed label whose
// parent is clean gets the parent's frame rebuilt down that parent's
// label chain from the root, memoized within the pass. The resulting
// rows are kept in printer's output order as two parallel arrays: the
// entries themselves, which a Result hands out as they are, and each
// row's label bookkeeping. Once handed out, a row array is never
// written again: Results, route stores and what-if runs share it as
// long as they like. An update is a sorted merge into fresh arrays of
// exactly the new row count: drop the dirty labels' old rows, merge in
// their new ones, block-copying the runs in between.

import (
	"slices"
	"sort"

	"pathalias/internal/graph"
	"pathalias/internal/mapper"
	"pathalias/internal/printer"
)

// rowLess is printer.SortRows' order, for the merge's binary search:
// host name, then main entries before domain-qualified ones, then name
// rank, then label.
func (v *vantage) rowLess(rank []int32, ha string, a printer.Row, hb string, b printer.Row) bool {
	if ha != hb {
		return ha < hb
	}
	if a.Odd != b.Odd {
		return !a.Odd
	}
	ra := rank[v.mc.Label(a.Label).Node.ID]
	rb := rank[v.mc.Label(b.Label).Node.ID]
	if ra != rb {
		return ra < rb
	}
	return a.Label < b.Label
}

// rebuildRoutes derives every entry from scratch (full-re-map path).
func (v *vantage) rebuildRoutes(e *core) {
	v.entries, v.meta = printer.Derive(v.mc, e.opts.Printer, nil)
}

// routePass is the frame table of one patchRoutes pass: the frames of
// the labels it recomputed and of the clean ancestors it rebuilt them
// from. It lives only as long as the pass.
type routePass struct {
	mc     *mapper.Machine
	frames map[int32]printer.Frame
	chain  []int32
}

// frame returns label li's frame, which must be mapped: from the table,
// or rebuilt with printer.Extend down li's label chain from the nearest
// ancestor the table holds (from the root when none does), memoizing
// every frame on the way.
func (p *routePass) frame(li int32) printer.Frame {
	if f, ok := p.frames[li]; ok {
		return f
	}
	var f printer.Frame
	var pf *printer.Frame
	chain := p.chain[:0]
	for x := li; ; {
		chain = append(chain, x)
		up := p.mc.Label(x).Parent
		if up < 0 {
			break
		}
		if g, ok := p.frames[up]; ok {
			f, pf = g, &f
			break
		}
		x = up
	}
	for k := len(chain) - 1; k >= 0; k-- {
		lv := p.mc.Label(chain[k])
		var pv mapper.LabelView
		if lv.Parent >= 0 {
			pv = p.mc.Label(lv.Parent)
		}
		f = printer.Extend(pv, lv, pf)
		pf = &f
		p.frames[chain[k]] = f
	}
	p.chain = chain
	return f
}

// patchRoutes recomputes entries for the changed labels and their
// descendants after a warm run. netFlips lists nodes whose IsNet flag
// flipped across the replayed generations (a print-only effect the
// label diff cannot see). It reports whether any entry may have changed
// (false = the previous rows are provably still exact).
func (v *vantage) patchRoutes(e *core, changed []int32, netFlips []int32) bool {
	isDirty := make([]uint64, (v.mc.NumLabels()+63)/64)
	dirtyAt := func(li int32) bool { return isDirty[li>>6]&(1<<(li&63)) != 0 }
	var dirty []int32
	mark := func(li int32) bool {
		if dirtyAt(li) {
			return false
		}
		isDirty[li>>6] |= 1 << (li & 63)
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
		li := v.mc.NodeLabel(id)
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

	// Recompute top-down: parents strictly precede children in hop
	// count, so a dirty label's dirty parent is already in the table.
	slices.SortFunc(dirty, func(a, b int32) int {
		return int(v.mc.Label(a).Hops) - int(v.mc.Label(b).Hops)
	})
	pass := routePass{mc: v.mc, frames: make(map[int32]printer.Frame, len(dirty))}
	var found []printer.Entry
	var foundRows []printer.Row
	for _, li := range dirty {
		lv := v.mc.Label(li)
		if lv.Node == nil || lv.State != graph.Mapped {
			continue
		}
		f := pass.frame(li)
		if en, r, ok := printer.Emit(v.mc, li, &f, e.opts.Printer); ok {
			found, foundRows = append(found, en), append(foundRows, r)
		}
	}
	newEntries := make([]printer.Entry, len(found))
	newMeta := make([]printer.Row, len(found))
	printer.SortRows(v.mc, found, foundRows, newEntries, newMeta)

	// Merge: old rows minus dirty labels, plus the recomputed rows, into
	// fresh arrays — never into the old ones, which earlier Results,
	// their stores and what-if runs share. Each new row goes before the
	// first old row it sorts below (dropped rows kept their place in the
	// old order, so a binary search over all old rows finds it); the
	// clean runs between those points and the dirty rows are
	// block-copied.
	old, oldMeta := v.entries, v.meta
	n := len(newEntries)
	for _, r := range oldMeta {
		if !dirtyAt(r.Label) {
			n++
		}
	}
	entries, meta := make([]printer.Entry, n), make([]printer.Row, n)
	k, i := 0, 0 // write cursor; next old row
	// copyClean copies the clean old rows in [i, end).
	copyClean := func(end int) {
		for i < end {
			run := i
			for run < end && !dirtyAt(oldMeta[run].Label) {
				run++
			}
			copy(entries[k:], old[i:run])
			copy(meta[k:], oldMeta[i:run])
			k += run - i
			i = run
			for i < end && dirtyAt(oldMeta[i].Label) {
				i++ // superseded (or gone)
			}
		}
	}
	rank := v.mc.Rank()
	for x, en := range newEntries {
		at := i + sort.Search(len(old)-i, func(y int) bool {
			return v.rowLess(rank, en.Host, newMeta[x], old[i+y].Host, oldMeta[i+y])
		})
		copyClean(at)
		entries[k], meta[k] = en, newMeta[x]
		k++
	}
	copyClean(len(old))
	v.entries, v.meta = entries, meta
	return true
}
