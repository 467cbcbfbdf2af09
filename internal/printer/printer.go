// Package printer emits routes from the shortest-path tree — the third of
// pathalias's three phases.
//
// From "PRINTING THE ROUTES": routes are printf format strings built by a
// preorder traversal of the tree. The root (the local host) is labeled
// "%s"; a child's route is the parent's route with %s replaced by
// "host!%s" (LEFT operators) or "%s@host" (RIGHT operators). Routes are
// computed during the recursion and passed as parameters, never stored in
// nodes — the paper's memory argument for keeping the mapping and printing
// phases separate.
//
// The tree is a mapper.Machine's labels and child lists. Extend (a
// child's frame from its parent's) and Emit (a label's output line) are
// the rules; Derive is the whole traversal, which batch runs (Routes)
// and the incremental engine's full re-maps both take. The engine
// re-derives a changed subtree through the same Extend and Emit.
//
// Entries are in name order (SortRows) under every option, the order
// route indexes take in place; the paper's cheapest-first listing is a
// copy that ByCost makes only where one is written.
//
// Special cases, all from the paper:
//
//   - Networks take the route of their parent and are not printed; the
//     operator used for network→member edges is the one "encountered when
//     entering the network" (the mapper precomputes this as the label's
//     ViaOp).
//   - Domains accrete names downward: caip under .rutgers under .edu is
//     printed as caip.rutgers.edu. Subdomain routes are not printed; a
//     top-level domain (parent not a domain) is printed with its parent's
//     route.
//   - Private hosts are labeled but not printed, though their names may
//     appear inside other hosts' routes.
//   - Aliases ride along at zero cost: each alias name is printed with the
//     route of the machine it names.
package printer

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"

	"pathalias/internal/cost"
	"pathalias/internal/graph"
	"pathalias/internal/mapper"
	"pathalias/internal/resolver"
)

// Options control which routes are printed and with which cost;
// routedb.WriteText renders them as text.
type Options struct {
	// DomainsOnly restricts output to top-level domains (-D).
	DomainsOnly bool
	// FirstHopCost reports the cost of the first hop out of the local
	// host instead of the full path cost (the -f flag): useful when the
	// first hop dominates, which the paper's per-hop-overhead argument
	// says it often does.
	FirstHopCost bool
}

// Entry is one output line: a reachable name and the route to it. It
// is the route index's entry type, so a derived table is indexed as it
// is, never converted.
type Entry = resolver.Entry

// Row is an output entry's bookkeeping: the label it was printed for,
// and whether it is printed under a name that is not its node's own (a
// domain-qualified name, "odd" for the sort).
type Row struct {
	Label int32
	Odd   bool
}

// Frame is the traversal state passed down the recursion, one per
// label: the route to the label (with the byte offset of its "%s"
// marker), the name it is known by (qualified for domain members), the
// accreted domain suffix in force, whether the label was reached from
// inside a domain chain (making a domain a subdomain), and the cost of
// the first link out of the root. A frame is a function of its label
// chain alone, so nothing needs to keep it: the incremental engine
// rebuilds the frames a changed subtree needs, with Extend, from the
// root down.
type Frame struct {
	Route     string
	Pct       int32
	Name      string
	Suffix    string
	Subdomain bool
	FirstHop  cost.Cost
}

// Routes flattens the mapping result into name-ordered output entries,
// applying the paper's traversal rules to the labels of the run's machine.
func Routes(res *mapper.Result, opts Options) []Entry {
	entries, _ := Derive(res.Machine, opts, nil)
	return entries
}

// ByCost returns a copy of entries, which must be in name order (as
// every producer hands them out), ordered by (cost, name): the paper's
// example order, which -c lists. Index order is name order, so it sorts
// packed (cost, index) keys and compares no strings; entries with the
// same cost and name keep their name-order positions. It never writes
// entries.
func ByCost(entries []Entry) []Entry {
	shift := bits.Len(uint(len(entries)))
	keys := make([]uint64, len(entries))
	var all uint64
	for i, e := range entries {
		all |= uint64(e.Cost)
		keys[i] = uint64(e.Cost)<<shift | uint64(i)
	}
	if bits.Len64(all)+shift > 64 {
		// A key cannot hold these costs (never the case for costs up to
		// cost.Infinity and fewer than 2^23 entries).
		out := slices.Clone(entries)
		slices.SortStableFunc(out, func(a, b Entry) int { return cmp.Compare(a.Cost, b.Cost) })
		return out
	}
	slices.Sort(keys)
	out := make([]Entry, len(entries))
	for k, key := range keys {
		out[k] = entries[key&(1<<shift-1)]
	}
	return out
}

// Derive is the paper's preorder traversal over the labels and child
// lists of mc's last run. It returns the printed rows in output order
// (SortRows), in arrays of their own that fit exactly. With frames
// non-nil (one slot per label), it also stores each reached label's
// frame there, for tests to compare with.
func Derive(mc *mapper.Machine, opts Options, frames []Frame) ([]Entry, []Row) {
	entries, rows := traverse(mc, opts, frames)
	dstE, dstR := make([]Entry, len(entries)), make([]Row, len(rows))
	SortRows(mc, entries, rows, dstE, dstR)
	return dstE, dstR
}

// traverse walks mc's tree from the root, passing frames down, and
// returns the rows printed in traversal order.
func traverse(mc *mapper.Machine, opts Options, frames []Frame) ([]Entry, []Row) {
	root := mc.Root()
	if root < 0 {
		return nil, nil
	}
	// A node prints at most once, under its winning label.
	d := &deriver{mc: mc, opts: opts, frames: frames,
		entries: make([]Entry, 0, len(mc.Rank())),
		rows:    make([]Row, 0, len(mc.Rank()))}
	rv := mc.Label(root)
	d.visit(root, rv, Extend(mapper.LabelView{}, rv, nil))
	return d.entries, d.rows
}

// deriver is the state of one traversal. The frames travel down the
// recursion by value, as the paper's route strings do.
type deriver struct {
	mc      *mapper.Machine
	opts    Options
	frames  []Frame
	entries []Entry
	rows    []Row
	kids    []int32 // child lists of the labels on the recursion path
}

func (d *deriver) visit(li int32, lv mapper.LabelView, f Frame) {
	if d.frames != nil {
		d.frames[li] = f
	}
	if e, r, ok := Emit(d.mc, li, &f, d.opts); ok {
		d.entries, d.rows = append(d.entries, e), append(d.rows, r)
	}
	// This label's children go on top of its ancestors' in kids; each
	// child's visit leaves kids as it found it.
	from := len(d.kids)
	d.kids = d.mc.AppendChildren(d.kids, li)
	to := len(d.kids)
	for k := from; k < to; k++ {
		c := d.mc.Label(d.kids[k])
		d.visit(d.kids[k], c, Extend(lv, c, &f))
	}
	d.kids = d.kids[:from]
}

// Extend computes label c's frame from its parent's label and frame pf,
// implementing the paper's labeling rules; at the root (pf nil) the
// route is "%s".
func Extend(parent, c mapper.LabelView, pf *Frame) Frame {
	if pf == nil {
		return Frame{Route: "%s", Name: c.Node.Name}
	}
	l := c.Via
	nf := Frame{Route: pf.Route, Pct: pf.Pct, Name: c.Node.Name, FirstHop: pf.FirstHop}
	if parent.Parent < 0 {
		nf.FirstHop = l.Cost
	}
	switch {
	case l.Flags&graph.LAlias != 0:
		// Same machine, another name: identical route, own name.

	case c.Node.IsNet():
		// Entering a network or domain: "the route to a network is
		// identical to the route to its parent." A domain starts (or,
		// under another domain, continues) a name-accretion chain.
		if c.Node.IsDomain() {
			if l.Flags&graph.LNetMember != 0 && parent.Node.IsDomain() {
				// Subdomain: .rutgers under .edu accretes to .rutgers.edu.
				nf.Suffix = c.Node.Name + pf.Suffix
				nf.Name = nf.Suffix
				nf.Subdomain = true
			} else {
				nf.Suffix = c.Node.Name
			}
		}

	case l.Flags&graph.LNetMember != 0 && parent.Node.IsDomain():
		// Host member of a domain: splice its fully qualified name.
		nf.Name = c.Node.Name + pf.Suffix
		nf.splice(nf.Name, c.ViaOp)

	default:
		// Ordinary hop (including members of plain networks and plain
		// links out of domains): splice the host's own name with the
		// effective operator.
		nf.splice(c.Node.Name, c.ViaOp)
	}
	return nf
}

// splice extends f's route by one hop to host.
func (f *Frame) splice(host string, op graph.Op) {
	route, pct := Splice(f.Route, int(f.Pct), host, op)
	f.Route, f.Pct = route, int32(pct)
}

// Emit returns the output line for label li of mc, reached with frame
// f, if the paper's rules call for one. Only a node's winning label is
// printed: under SecondBest the other label carries children only.
func Emit(mc *mapper.Machine, li int32, f *Frame, opts Options) (Entry, Row, bool) {
	lv := mc.Label(li)
	n := lv.Node
	if lv.State != graph.Mapped || n.IsPrivate() || n.IsDeleted() || mc.Winner(n) != li {
		return Entry{}, Row{}, false
	}
	if n.IsNet() {
		// Networks are placeholders. Only a top-level domain — one whose
		// parent is not a domain — is printed, with its parent's route.
		if !n.IsDomain() || f.Subdomain {
			return Entry{}, Row{}, false
		}
	} else if opts.DomainsOnly {
		return Entry{}, Row{}, false
	}
	c := lv.Cost
	if opts.FirstHopCost {
		c = f.FirstHop
	}
	return Entry{Host: f.Name, Route: f.Route, Cost: c}, Row{Label: li, Odd: f.Name != n.Name}, true
}

// SortRows writes entries and their rows to dstE and dstR (of the same
// length, not aliasing the input) in the canonical output order: by
// host name; a name printed both as a node's own and domain-qualified
// puts the node's own first, and qualified collisions go by name rank,
// then label. Most rows are printed under their node's own name, whose
// rank order IS name order, so they sort by integer rank keys; the few
// domain-qualified rows sort by string and merge in.
func SortRows(mc *mapper.Machine, entries []Entry, rows []Row, dstE []Entry, dstR []Row) {
	rank := mc.Rank()
	nodeRank := func(r Row) int32 { return rank[mc.Label(r.Label).Node.ID] }
	keys := make([]uint64, 0, len(rows))
	var odd []int32
	for i, r := range rows {
		if r.Odd {
			odd = append(odd, int32(i))
		} else {
			keys = append(keys, uint64(nodeRank(r))<<32|uint64(i))
		}
	}
	slices.Sort(keys)
	slices.SortFunc(odd, func(a, b int32) int {
		return cmp.Or(strings.Compare(entries[a].Host, entries[b].Host),
			cmp.Compare(nodeRank(rows[a]), nodeRank(rows[b])),
			cmp.Compare(rows[a].Label, rows[b].Label))
	})
	k, j := 0, 0
	put := func(i int32) {
		dstE[k], dstR[k] = entries[i], rows[i]
		k++
	}
	for _, key := range keys {
		i := int32(uint32(key))
		for j < len(odd) && entries[odd[j]].Host < entries[i].Host {
			put(odd[j])
			j++
		}
		put(i)
	}
	for ; j < len(odd); j++ {
		put(odd[j])
	}
}

// Splice builds the child route: LEFT gives host!%s in place of %s, RIGHT
// gives %s@host. pct is the byte offset of "%s" in route; tracking it
// avoids rescanning ever-longer routes for the marker, and the returned
// offset feeds the next hop. One sized allocation per hop.
func Splice(route string, pct int, host string, op graph.Op) (string, int) {
	var b strings.Builder
	b.Grow(len(route) + len(host) + 1)
	if op.Dir == graph.DirRight {
		// %s@host: the marker stays put.
		b.WriteString(route[:pct+2])
		b.WriteByte(op.Char)
		b.WriteString(host)
		b.WriteString(route[pct+2:])
		return b.String(), pct
	}
	// host!%s: the marker moves past the host and operator.
	b.WriteString(route[:pct])
	b.WriteString(host)
	b.WriteByte(op.Char)
	b.WriteString(route[pct:])
	return b.String(), pct + len(host) + 1
}
