package remap

// Incremental route derivation, per vantage. printer.Derive derives
// every format string by a full traversal of the machine's tree; a
// vantage keeps the frame it computed for each label, and after a warm
// run recomputes frames only for labels whose value changed, plus their
// descendants (a route string depends on every ancestor's frame),
// through the printer's own Extend and Emit. The resulting rows are
// kept in printer's output order as two parallel arrays: the entries
// themselves, which a Result hands out as they are, and each row's
// label bookkeeping. An update is a sorted merge into the spare pair of
// arrays: drop the dirty labels' old rows, merge in their new ones,
// block-copying the runs in between.

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

// swapRows makes the given spare arrays the live ones: the
// arrays handed out with the latest Result become the spare, which the
// next change overwrites — why a Result's Entries stay valid only until
// the second recompute of its vantage that changes a row.
func (v *vantage) swapRows(entries []printer.Entry, meta []printer.Row) {
	v.spareEntries, v.spareMeta = v.entries, v.meta
	v.entries, v.meta = entries, meta
}

// spareRows returns the spare arrays with room for n rows, reallocated
// with 25% headroom when short: the row count creeps up by a few
// entries per host-add generation, and an exact fit would force the
// allocation on every patch.
func (v *vantage) spareRows(n int) ([]printer.Entry, []printer.Row) {
	if cap(v.spareEntries) < n || cap(v.spareMeta) < n {
		return make([]printer.Entry, n, n+n/4), make([]printer.Row, n, n+n/4)
	}
	return v.spareEntries[:n], v.spareMeta[:n]
}

// rebuildRoutes derives every frame and entry from scratch (full-re-map
// path).
func (v *vantage) rebuildRoutes(e *core) {
	nl := v.mc.NumLabels()
	if cap(v.frames) >= nl {
		v.frames = v.frames[:nl]
		clear(v.frames)
	} else {
		v.frames = make([]printer.Frame, nl)
	}
	if cap(v.frameDirty) >= nl {
		v.frameDirty = v.frameDirty[:nl]
	} else {
		v.frameDirty = make([]uint32, nl)
		v.frameEpoch = 0
	}
	v.swapRows(printer.Derive(v.mc, e.opts.Printer, v.frames, v.spareEntries, v.spareMeta))
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
		v.frames = append(v.frames, make([]printer.Frame, nl-len(v.frames))...)
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
	var found []printer.Entry
	var foundRows []printer.Row
	for _, li := range dirty {
		lv := v.mc.Label(li)
		if lv.Node == nil || lv.State != graph.Mapped {
			v.frames[li] = printer.Frame{}
			continue
		}
		var pv mapper.LabelView
		var pf *printer.Frame
		if lv.Parent >= 0 {
			pv, pf = v.mc.Label(lv.Parent), &v.frames[lv.Parent]
		}
		v.frames[li] = printer.Extend(pv, lv, pf)
		if en, r, ok := printer.Emit(v.mc, li, &v.frames[li], e.opts.Printer); ok {
			found, foundRows = append(found, en), append(foundRows, r)
		}
	}
	newEntries := make([]printer.Entry, len(found))
	newMeta := make([]printer.Row, len(found))
	printer.SortRows(v.mc, found, foundRows, newEntries, newMeta)

	// Merge: old rows minus dirty labels, plus the recomputed rows, into
	// the spare arrays. Each new row goes before the first old row it
	// sorts below (dropped rows kept their place in the old order, so a
	// binary search over all old rows finds it); the clean runs between
	// those points and the dirty rows are block-copied.
	old, oldMeta := v.entries, v.meta
	entries, meta := v.spareRows(len(old) + len(newEntries))
	k, i := 0, 0 // write cursor; next old row
	// copyClean copies the clean old rows in [i, end).
	copyClean := func(end int) {
		for i < end {
			run := i
			for run < end && v.frameDirty[oldMeta[run].Label] != epoch {
				run++
			}
			copy(entries[k:], old[i:run])
			copy(meta[k:], oldMeta[i:run])
			k += run - i
			i = run
			for i < end && v.frameDirty[oldMeta[i].Label] == epoch {
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
		printer.SortByCost(v.byCost)
		v.byCostGen = v.routeGen
	}
	return v.byCost
}
