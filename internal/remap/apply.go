package remap

// Journaled fragment application: the write side of the incremental
// engine. Applying a fragment replays its operations into the persistent
// graph exactly as the parser's merge phase would, while journaling
// enough to take every effect back out again when the file changes:
//
//   - node references are refcounted per file, so a node disappears
//     (soft-deletes) exactly when no current file mentions it;
//   - ordinary link declarations go through a global declaration index
//     keyed by (from, to), so undoing one contribution can recompute the
//     surviving winner (first declaration achieving the minimum cost —
//     AddLink's fold rule) or remove the link entirely;
//   - alias pairs, gateway grants, and private bindings are refcounted;
//     network memberships journal the exact edges they created;
//   - dead/delete/gatewayed flags and cost adjustments are kept as
//     counters/sums per node, and the node's flag word is recomputed
//     from them.
//
// Change detection is by before/after comparison, not by mutation: the
// first time an update touches a link or a node's attributes, their
// prior state is captured; after all files are patched, deriveEvents
// compares captured state against the final graph. An edited file is
// applied *before* its old journal is undone, so contributions present
// in both versions never transit through zero — the surviving links keep
// their identity (and the labels pointing at them stay valid), and the
// derived change set is the true semantic delta of the edit, not the
// file's whole contents.

import (
	"strings"

	"pathalias/internal/cost"
	"pathalias/internal/graph"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
)

// nodeState is the engine's per-node contribution ledger, indexed by
// node ID.
type nodeState struct {
	refs   int32     // current files referencing the node
	dead   int32     // dead{host} declarations
	del    int32     // delete{host} declarations
	gwReq  int32     // gatewayed{net} declarations
	net    int32     // net = {...} declarations targeting the node
	adjust cost.Cost // sum of adjust{} deltas
	ghost  bool      // refs hit zero: invisible until re-referenced
}

// declRec is one ordinary link declaration in the declaration index.
type declRec struct {
	file int32 // stable file id; priority is posOf[file]
	seq  int32 // declaration order within the file
	cost cost.Cost
	op   graph.Op
}

// aliasState tracks one alias pair's declarations and its edge pair.
type aliasState struct {
	count  int32
	ab, ba *graph.Link
}

// declJournal locates one ordinary link declaration for undo.
type declJournal struct {
	key uint64 // pairKey(from, to)
	seq int32
}

type adjJournal struct {
	node  int32
	delta cost.Cost
}

type privJournal struct {
	name string
	file string
}

// journal is everything one file contributed to the graph.
type journal struct {
	refs      []int32
	decls     []declJournal
	netLinks  []*graph.Link // entry/member edge pairs created by net declarations
	netFlags  []int32       // nodes whose net-declaration count we incremented
	aliasKeys []uint64
	gwKeys    []uint64 // packed (net, host) gateway contributions
	dead      []int32
	del       []int32
	gwReq     []int32
	adjusts   []adjJournal
	privates  []privJournal
	pendings  []parser.PendingLink
	seq       int32 // next link-declaration sequence number
}

// fileState is one current input and its journal.
type fileState struct {
	id   int32 // stable id; eng.posOf[id] is its current input position
	name string
	hash uint64
	frag *parser.Fragment
	j    journal

	// Scope sensitivity, computed once per fragment: private bindings
	// are positional within a file, so an edited file that declares (or
	// declared) privates must be undone before its replacement applies;
	// mid-stream file{} scope switches can rebind names for *other*
	// files and force a full journal rebuild.
	hasPrivate    bool
	hasFileSwitch bool
}

// linkSig is a link's captured prior state for change derivation.
// sigFlagMask selects the semantic bits: LTree is mapper output noise.
const sigFlagMask = ^graph.LTree

type linkSig struct {
	present bool
	cost    cost.Cost
	op      graph.Op
	flags   graph.LinkFlags
}

// attrSig is a node's captured prior attribute state.
type attrSig struct {
	flags  graph.NodeFlags
	adjust cost.Cost
	gws    []int32 // gateway IDs copy; nil when none
}

// edgeEvent records one link-level change for the mapping layer.
type edgeEvent struct {
	from, to int32
	link     *graph.Link
	removed  bool
}

// changes accumulates one update's derived graph-level effects.
type changes struct {
	touched    map[int32]bool // nodes whose out-edge rows must be rebuilt
	edges      []edgeEvent    // added/changed/removed links
	attrs      []int32        // nodes with attribute changes (flags, adjust, gateways)
	netFlips   []int32        // nodes whose IsNet changed (print-only effect)
	structural bool           // user-delete flips / rebuilds: full snapshot + full re-map
	grown      bool           // new nodes appended: full snapshot, but warm-mappable after a rank re-base
}

func (c *changes) reset() {
	if c.touched == nil {
		c.touched = make(map[int32]bool)
	} else {
		clear(c.touched)
	}
	c.edges = c.edges[:0]
	c.attrs = c.attrs[:0]
	c.netFlips = c.netFlips[:0]
	c.structural = false
	c.grown = false
}

func (c *changes) edge(l *graph.Link, removed bool) {
	c.edges = append(c.edges, edgeEvent{
		from: int32(l.From.ID), to: int32(l.To.ID), link: l, removed: removed})
	c.touched[int32(l.From.ID)] = true
}

// pairKey packs two node IDs order-sensitively — the same packing as
// graph's link index keys.
func pairKey(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// node returns the node with the given ID.
func (e *core) node(id int32) *graph.Node { return e.g.Nodes()[id] }

// nstate returns the ledger entry for n, growing the table as nodes are
// created.
func (e *core) nstate(n *graph.Node) *nodeState {
	for n.ID >= len(e.nstates) {
		e.nstates = append(e.nstates, nodeState{})
		e.stamp = append(e.stamp, 0)
	}
	return &e.nstates[n.ID]
}

// --- capture layer -----------------------------------------------------

// captureLink records l's current state the first time an update touches
// it. present=false marks links created by this update.
func (e *core) captureLink(l *graph.Link, present bool) {
	if !e.capturing {
		return
	}
	if _, ok := e.beforeLinks[l]; ok {
		return
	}
	e.beforeLinks[l] = linkSig{present: present, cost: l.Cost, op: l.Op,
		flags: l.Flags & sigFlagMask}
}

// captureAttr records n's current attribute state on first touch.
func (e *core) captureAttr(n *graph.Node) {
	if !e.capturing {
		return
	}
	id := int32(n.ID)
	if _, ok := e.beforeAttrs[id]; ok {
		return
	}
	sig := attrSig{flags: n.Flags, adjust: n.Adjust}
	if gws := n.Gateways(); len(gws) > 0 {
		sig.gws = make([]int32, len(gws))
		for i, h := range gws {
			sig.gws[i] = int32(h.ID)
		}
	}
	e.beforeAttrs[id] = sig
}

func (e *core) trackNewLink(l *graph.Link) {
	if l != nil {
		e.captureLink(l, false)
	}
}

func (e *core) removeLinkTracked(l *graph.Link) {
	e.captureLink(l, true)
	if e.g.RemoveLink(l) && e.capturing {
		e.removedNow[l] = true
	}
}

func (e *core) setLinkCostTracked(l *graph.Link, c cost.Cost, op graph.Op) {
	e.captureLink(l, true)
	e.g.SetLinkCost(l, c, op)
}

func (e *core) setLinkFlagsTracked(l *graph.Link, fl graph.LinkFlags) {
	e.captureLink(l, true)
	e.g.SetLinkFlags(l, fl)
}

// deriveEvents turns the captured before-states into the update's change
// events by comparing them with the final graph.
func (e *core) deriveEvents() {
	for l, sig := range e.beforeLinks {
		if e.removedNow[l] {
			if sig.present {
				e.ch.edge(l, true)
			}
			continue // created and removed within the update: invisible
		}
		if !sig.present {
			e.ch.edge(l, false)
			continue
		}
		if l.Cost != sig.cost || l.Op != sig.op || l.Flags&sigFlagMask != sig.flags {
			e.ch.edge(l, false)
		}
	}
	for id, sig := range e.beforeAttrs {
		n := e.node(id)
		if n.Flags == sig.flags && n.Adjust == sig.adjust && gwsEqual(n, sig.gws) {
			continue
		}
		e.ch.attrs = append(e.ch.attrs, id)
		e.ch.touched[id] = true
		if (n.Flags^sig.flags)&graph.FNet != 0 {
			e.ch.netFlips = append(e.ch.netFlips, id)
		}
	}
}

func gwsEqual(n *graph.Node, want []int32) bool {
	gws := n.Gateways()
	if len(gws) != len(want) {
		return false
	}
	for i, h := range gws {
		if int32(h.ID) != want[i] {
			return false
		}
	}
	return true
}

// --- derived node attributes ------------------------------------------

// recomputeNode derives n's flag word and adjustment from the ledger,
// capturing its prior state first.
func (e *core) recomputeNode(n *graph.Node) {
	e.captureAttr(n)
	ns := e.nstate(n)
	fl := n.Flags & (graph.FDomain | graph.FPrivate)
	if n.IsDomain() {
		fl |= graph.FGatewayed
	}
	if ns.net > 0 {
		fl |= graph.FNet
	}
	if ns.dead > 0 {
		fl |= graph.FDead
	}
	if ns.del > 0 || ns.ghost {
		fl |= graph.FDeleted
	}
	if ns.gwReq > 0 || len(n.Gateways()) > 0 {
		fl |= graph.FGatewayed
	}
	adj := ns.adjust
	if !ns.ghost && len(e.avoid) > 0 && e.avoid[n.Name] {
		if gn, ok := e.g.Lookup(n.Name); ok && gn == n {
			adj += mapper.DefaultDeadPenalty
		}
	}
	if fl != n.Flags {
		e.g.SetNodeFlags(n, fl)
	}
	if adj != n.Adjust {
		e.g.SetAdjust(n, adj)
	}
}

// --- apply -------------------------------------------------------------

// note journals a node reference for f: refcount, ghost resurrection,
// and new-node (grown) detection. Idempotent per (file, node).
func (e *core) note(f *fileState, n *graph.Node) {
	ns := e.nstate(n)
	if e.stamp[n.ID] != e.stampGen {
		e.stamp[n.ID] = e.stampGen
		f.j.refs = append(f.j.refs, int32(n.ID))
		ns.refs++
	}
	if ns.ghost {
		ns.ghost = false
		e.recomputeNode(n)
	}
	if int32(n.ID) >= e.firstNewNode {
		// Created this update: new name, new rank. Node IDs only ever
		// append, so existing labels and route frames stay valid — the
		// vantage machines re-base their cached tie keys onto the new
		// ranks (mapper.RebaseGrow) instead of falling back to a full
		// re-map. A fresh node also needs its derived attributes
		// initialized when the avoid list names it (nothing else
		// triggers a recompute).
		e.ch.grown = true
		if len(e.avoid) > 0 && e.avoid[n.Name] {
			e.recomputeNode(n)
		}
	}
}

// ref resolves name in the graph's current file scope, journaling the
// reference for f and resurrecting ghosts.
func (e *core) ref(f *fileState, name string) *graph.Node {
	n := e.g.Ref(name)
	e.note(f, n)
	return n
}

// refFast is ref through a one-entry cache: consecutive operations
// overwhelmingly name the same left-hand host (one opRef plus one opLink
// per declared link), exactly like the merger's cache.
func (e *core) refFast(f *fileState, name string) *graph.Node {
	if name == e.refName && e.refNode != nil {
		e.note(f, e.refNode)
		return e.refNode
	}
	n := e.g.Ref(name)
	e.refName, e.refNode = name, n
	e.note(f, n)
	return n
}

// refDest resolves a link destination through a small direct-mapped
// cache (real maps concentrate destinations on hub nodes).
func (e *core) refDest(f *fileState, name string) *graph.Node {
	s := &e.refDests[destSlot(name)]
	if s.name == name && s.node != nil {
		e.note(f, s.node)
		return s.node
	}
	n := e.g.Ref(name)
	s.name, s.node = name, n
	e.note(f, n)
	return n
}

// destSlot is a cheap direct-mapped hash over a host name (the merger's,
// widened to the engine's larger cache and salted with a middle byte so
// numbered host names spread).
func destSlot(name string) int {
	n := len(name)
	return (n*131 + int(name[0])*31 + int(name[n-1])*7 + int(name[n/2])) & 2047
}

// clearRefCaches drops both resolution caches; required whenever the
// private scope changes, since bindings may differ across scopes.
func (e *core) clearRefCaches() {
	e.refName, e.refNode = "", nil
	clear(e.refDests[:])
}

// addGateway journals one gateway contribution (net, host).
func (e *core) addGateway(f *fileState, net, host *graph.Node) {
	key := pairKey(int32(net.ID), int32(host.ID))
	f.j.gwKeys = append(f.j.gwKeys, key)
	e.gwPairs[key]++
	if e.gwPairs[key] == 1 {
		e.captureAttr(net)
		e.g.AddGateway(net, host)
		e.recomputeNode(net)
	}
}

// declare journals one ordinary link declaration and reconciles the
// surviving link with the declaration index.
func (e *core) declare(f *fileState, from, to *graph.Node, c cost.Cost, op graph.Op) {
	if from == to {
		e.g.CountSelfLink()
		return
	}
	key := pairKey(int32(from.ID), int32(to.ID))
	seq := f.j.seq
	f.j.seq++
	f.j.decls = append(f.j.decls, declJournal{key: key, seq: seq})

	recs := e.declIdx[key]
	rec := declRec{file: f.id, seq: seq, cost: c, op: op}
	// Insert preserving global declaration order (file position, seq).
	i := len(recs)
	for i > 0 && e.declAfter(recs[i-1], rec) {
		i--
	}
	recs = append(recs, declRec{})
	copy(recs[i+1:], recs[i:])
	recs[i] = rec
	e.declIdx[key] = recs

	if len(recs) > 1 {
		e.g.CountDupLink()
	}
	e.reconcileLink(key, from, to)
}

// declAfter reports whether a comes after b in global declaration order.
func (e *core) declAfter(a, b declRec) bool {
	pa, pb := e.posOf[a.file], e.posOf[b.file]
	if pa != pb {
		return pa > pb
	}
	return a.seq > b.seq
}

// declWinner returns the surviving (cost, op) for a declaration list:
// the first declaration, in global order, achieving the minimum cost —
// exactly AddLink's duplicate fold.
func declWinner(recs []declRec) (cost.Cost, graph.Op) {
	w := recs[0]
	for _, r := range recs[1:] {
		if r.cost < w.cost {
			w = r
		}
	}
	return w.cost, w.op
}

// reconcileLink makes the graph's link for (from, to) match the
// declaration index: created, retargeted to a new winner, or removed.
func (e *core) reconcileLink(key uint64, from, to *graph.Node) {
	recs := e.declIdx[key]
	l := e.g.FindLink(from, to)
	if len(recs) == 0 {
		delete(e.declIdx, key)
		if l != nil {
			e.removeLinkTracked(l)
		}
		return
	}
	c, op := declWinner(recs)
	if l == nil {
		e.trackNewLink(e.g.AddLinkAt(from, to, c, op))
		return
	}
	if l.Cost != c || l.Op != op {
		e.setLinkCostTracked(l, c, op)
	}
}

// scanScopeOps fills the fragment-level scope-sensitivity flags.
func (f *fileState) scanScopeOps() {
	f.frag.Ops(func(op *parser.ReplayOp) bool {
		switch op.Kind {
		case parser.ReplayPrivate:
			f.hasPrivate = true
		case parser.ReplayFile:
			f.hasFileSwitch = true
		}
		return !(f.hasPrivate && f.hasFileSwitch)
	})
}

// apply replays frag into the graph under f's journal. The fragment must
// be error-free (the engine falls back to a plain merge otherwise).
func (e *core) apply(f *fileState, frag *parser.Fragment) {
	e.applyFrom(f, frag, 0, 0)
}

// applyFrom replays frag into the graph under f's journal, starting at
// statement fromStmt and pending-link fromPending — the append fast
// path (syncIncremental): when an edited file Extends its cached
// predecessor, the journaled prefix is already in the graph and only
// the appended tail replays. Statement sequence numbers (f.j.seq) and
// private-scope state carry over from the prefix's apply, so the tail
// lands exactly as a full replay would.
func (e *core) applyFrom(f *fileState, frag *parser.Fragment, fromStmt, fromPending int) {
	e.stampGen++
	g := e.g
	g.BeginFile(f.name)
	e.clearRefCaches()
	frag.OpsFrom(fromStmt, func(op *parser.ReplayOp) bool {
		switch op.Kind {
		case parser.ReplayRef:
			e.refFast(f, op.A)
		case parser.ReplayLink:
			from := e.refFast(f, op.A)
			to := e.refDest(f, op.B)
			if op.Dom {
				e.addGateway(f, to, from)
			}
			e.declare(f, from, to, op.Cost, op.LinkOp)
		case parser.ReplayNet:
			net := e.ref(f, op.A)
			ns := e.nstate(net)
			ns.net++
			f.j.netFlags = append(f.j.netFlags, int32(net.ID))
			if ns.net == 1 {
				e.recomputeNode(net)
			}
			for _, name := range op.Members {
				m := e.ref(f, name)
				if m == net {
					g.CountSelfLink()
					continue
				}
				entryCost := op.Cost
				if m.IsDomain() && net.IsDomain() {
					entryCost = cost.Infinity
				}
				entry, member := g.AddNetEdges(net, m, entryCost, op.LinkOp)
				f.j.netLinks = append(f.j.netLinks, entry, member)
				e.trackNewLink(entry)
				e.trackNewLink(member)
				if net.IsDomain() && !m.IsDomain() {
					e.addGateway(f, net, m)
				}
			}
		case parser.ReplayAlias:
			a := e.ref(f, op.A)
			b := e.ref(f, op.B)
			if a == b {
				g.CountSelfLink()
				break
			}
			key := pairKey(min(int32(a.ID), int32(b.ID)), max(int32(a.ID), int32(b.ID)))
			f.j.aliasKeys = append(f.j.aliasKeys, key)
			st := e.aliases[key]
			if st == nil {
				ab, ba, created := g.AddAliasEdges(a, b)
				st = &aliasState{ab: ab, ba: ba}
				e.aliases[key] = st
				if created {
					e.trackNewLink(ab)
					e.trackNewLink(ba)
				}
			}
			st.count++
		case parser.ReplayPrivate:
			e.clearRefCaches() // the private declaration rebinds its name
			p := g.DeclarePrivate(op.A)
			pn := e.nstate(p)
			if e.stamp[p.ID] != e.stampGen {
				e.stamp[p.ID] = e.stampGen
				f.j.refs = append(f.j.refs, int32(p.ID))
				pn.refs++
			}
			if pn.ghost {
				pn.ghost = false
				e.recomputeNode(p)
			}
			if int32(p.ID) >= e.firstNewNode {
				e.ch.grown = true
			}
			name := strings.Clone(op.A)
			file := g.CurrentFile()
			e.privCount[privKey(name, file)]++
			f.j.privates = append(f.j.privates, privJournal{name: name, file: file})
		case parser.ReplayDeadHost:
			n := e.ref(f, op.A)
			ns := e.nstate(n)
			ns.dead++
			f.j.dead = append(f.j.dead, int32(n.ID))
			if ns.dead == 1 {
				e.recomputeNode(n)
			}
		case parser.ReplayDeleteHost:
			n := e.ref(f, op.A)
			ns := e.nstate(n)
			ns.del++
			f.j.del = append(f.j.del, int32(n.ID))
			if ns.del == 1 {
				e.recomputeNode(n)
				// Edges into n vanish from other nodes' snapshot rows.
				e.ch.structural = true
			}
		case parser.ReplayGatewayed:
			n := e.ref(f, op.A)
			ns := e.nstate(n)
			ns.gwReq++
			f.j.gwReq = append(f.j.gwReq, int32(n.ID))
			if ns.gwReq == 1 {
				e.recomputeNode(n)
			}
		case parser.ReplayGateway:
			net := e.ref(f, op.A)
			host := e.ref(f, op.B)
			e.addGateway(f, net, host)
		case parser.ReplayAdjust:
			n := e.ref(f, op.A)
			e.nstate(n).adjust += op.Cost
			f.j.adjusts = append(f.j.adjusts, adjJournal{node: int32(n.ID), delta: op.Cost})
			e.recomputeNode(n)
		case parser.ReplayFile:
			e.clearRefCaches() // private bindings differ across scopes
			g.BeginFile(op.A)
		}
		return true
	})
	e.clearRefCaches()

	// Pending dead/delete link items: journal them (cloned out of the
	// fragment's backing text) and reference their names now, in the
	// scope they will resolve in, so the refcounts cover them.
	for _, p := range frag.PendingLinks()[fromPending:] {
		p.From = strings.Clone(p.From)
		p.To = strings.Clone(p.To)
		p.File = strings.Clone(p.File)
		p.Pos = strings.Clone(p.Pos)
		g.BeginFile(p.File)
		e.ref(f, p.From)
		e.ref(f, p.To)
		f.j.pendings = append(f.j.pendings, p)
	}
}

func privKey(name, file string) string { return file + "\x00" + name }

// undo reverses every effect of f's journal.
func (e *core) undo(f *fileState) {
	g := e.g
	for _, d := range f.j.decls {
		recs := e.declIdx[d.key]
		for i, r := range recs {
			if r.file == f.id && r.seq == d.seq {
				recs = append(recs[:i], recs[i+1:]...)
				break
			}
		}
		e.declIdx[d.key] = recs
		from := e.node(int32(d.key >> 32))
		to := e.node(int32(uint32(d.key)))
		e.reconcileLink(d.key, from, to)
	}
	for _, l := range f.j.netLinks {
		e.removeLinkTracked(l)
	}
	for _, id := range f.j.netFlags {
		n := e.node(id)
		ns := e.nstate(n)
		ns.net--
		if ns.net == 0 {
			e.recomputeNode(n)
		}
	}
	for _, key := range f.j.aliasKeys {
		st := e.aliases[key]
		st.count--
		if st.count == 0 {
			delete(e.aliases, key)
			if st.ab != nil {
				e.removeLinkTracked(st.ab)
			}
			if st.ba != nil {
				e.removeLinkTracked(st.ba)
			}
		}
	}
	for _, key := range f.j.gwKeys {
		e.gwPairs[key]--
		if e.gwPairs[key] == 0 {
			delete(e.gwPairs, key)
			net := e.node(int32(key >> 32))
			host := e.node(int32(uint32(key)))
			e.captureAttr(net)
			g.RemoveGateway(net, host)
			e.recomputeNode(net)
		}
	}
	for _, id := range f.j.dead {
		n := e.node(id)
		ns := e.nstate(n)
		ns.dead--
		if ns.dead == 0 {
			e.recomputeNode(n)
		}
	}
	for _, id := range f.j.del {
		n := e.node(id)
		ns := e.nstate(n)
		ns.del--
		if ns.del == 0 {
			e.recomputeNode(n)
			e.ch.structural = true
		}
	}
	for _, id := range f.j.gwReq {
		n := e.node(id)
		ns := e.nstate(n)
		ns.gwReq--
		if ns.gwReq == 0 {
			e.recomputeNode(n)
		}
	}
	for _, a := range f.j.adjusts {
		n := e.node(a.node)
		e.nstate(n).adjust -= a.delta
		e.recomputeNode(n)
	}
	for _, p := range f.j.privates {
		k := privKey(p.name, p.file)
		e.privCount[k]--
		if e.privCount[k] == 0 {
			delete(e.privCount, k)
			g.UndeclarePrivate(p.name, p.file)
		}
	}
	for _, id := range f.j.refs {
		ns := &e.nstates[id]
		ns.refs--
		if ns.refs == 0 {
			ns.ghost = true
			e.recomputeNode(e.node(id))
		}
	}
	f.j = journal{}
}
