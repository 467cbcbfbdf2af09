package remap

// Journaled fragment application: the write side of the incremental
// engine. Applying a fragment replays its operations into the persistent
// graph exactly as the parser's merge phase would, while journaling
// enough to take every effect back out again when the file changes:
//
//   - node references are counted in one pass over each replayed range's
//     journal entries, into a dense refcount per node, so a node
//     disappears (soft-deletes) exactly when no current statement names
//     it;
//   - each ordinary link declaration is a record in one engine-owned
//     array, chained to the other declarations of its (from, to) pair in
//     global declaration order; the link holds the chain's head
//     (graph.Link.Decl), so a declaration costs one probe of the graph's
//     link table, and undoing one recomputes the surviving winner (first
//     declaration achieving the minimum cost — AddLink's fold rule) from
//     the chain or removes the link entirely;
//   - alias pairs, gateway grants, and private bindings are refcounted;
//     network memberships journal the exact edges they created;
//   - dead/delete/gatewayed flags, network declarations and cost
//     adjustments are kept as counters/sums in a per-node ledger, and the
//     node's flag word is recomputed from them.
//
// A file's journal is one entry per effect, in statement order, plus one
// offset per statement, so the effects of any statement range can be
// undone and spliced out. An edited file is patched at statement
// granularity (patch): only the statements between the common prefix
// and suffix of its old and new fragments are replayed and undone. Link
// declarations carry gapped 64-bit sequence keys, so the replayed
// statements take keys inside the gap their predecessors left and
// declaration order stays exact without renumbering the rest of the
// file; when a gap runs out, the file is applied whole, which re-spaces
// its keys.
//
// Change detection is by before/after comparison, not by mutation: the
// first time an update touches a link or a node's attributes, their
// prior state is captured; after all files are patched, deriveEvents
// compares captured state against the final graph. Replacement
// statements are applied *before* the statements they replace are
// undone, so contributions present in both versions never transit
// through zero — the surviving links keep their identity (and the labels
// pointing at them stay valid), and the derived change set is the true
// semantic delta of the edit, not the file's whole contents.

import (
	"math"
	"slices"
	"strings"

	"pathalias/internal/cost"
	"pathalias/internal/graph"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
)

// nodeState is the engine's ledger of the statements that set a node's
// attributes, indexed by node ID and grown on first use. References are
// counted apart, in core.refs.
type nodeState struct {
	dead   int32     // dead{host} declarations
	del    int32     // delete{host} declarations
	gwReq  int32     // gatewayed{net} declarations
	net    int32     // net = {...} declarations targeting the node
	adjust cost.Cost // sum of adjust{} deltas
}

// declRec is one ordinary link declaration, a record in core.decls. The
// declarations of one (from, to) pair form a chain through next, in
// global declaration order (file position, then seq), whose first record
// the link holds in graph.Link.Decl. Index 0 is no record; a freed
// record's next links the free list.
type declRec struct {
	seq  uint64 // declaration order within the file (a gapped key)
	cost cost.Cost
	file int32 // stable file id; priority is posOf[file]
	next int32 // the chain's next record, 0 at its end
	op   graph.Op
}

// maxPatchBuf caps the entries of scratch space a statement-range
// patch keeps for the next one: edits are usually a few lines, and a
// rare wholesale rewrite should not pin its buffers.
const maxPatchBuf = 1 << 14

// seqGap spaces the sequence keys of a file applied whole: 2^32 keys
// between neighbouring declarations leave room for decades of edits
// replayed in place before the file must be re-spaced.
const seqGap = 1 << 32

// aliasState tracks one alias pair's declarations and its edge pair.
type aliasState struct {
	count  int32
	ab, ba *graph.Link
}

// jkind tags one journal entry.
type jkind uint8

const (
	jRef       jkind = iota // references only
	jDecl                   // ordinary link declaration a→b; x is its record in core.decls
	jGateway                // gateway contribution: a the net, b the host
	jNet                    // net = {...} declaration targeting a
	jNetEdge                // the edge pair between member a and network b; x is its ext slot
	jAlias                  // alias pair a = b
	jPrivate                // private binding of a; x is its ext slot
	jDead                   // dead{a}
	jDelete                 // delete{a}
	jGatewayed              // gatewayed{a}
	jAdjust                 // adjust{a}; x is the cost delta
)

// jent is one journaled effect. refs says which of its nodes it holds a
// reference on: 0 none, 1 a, 2 a and b (a self link holds a twice).
type jent struct {
	a, b int32
	x    uint64
	kind jkind
	refs uint8
}

// jext is an entry's pointer payload, kept out of jent so the entry
// array stays pointer-free.
type jext struct {
	entry, member *graph.Link // jNetEdge
	file          string      // jPrivate: the scope the binding lives in
}

// pendJournal is one deferred dead/delete link item, cloned out of the
// fragment's backing text, and the nodes its names referenced.
type pendJournal struct {
	parser.PendingLink
	from, to int32
}

// journal is everything one file contributed to the graph.
type journal struct {
	ents     []jent
	ends     []int32 // ends[i]: len(ents) once statement i was applied
	ext      []jext  // slots named by jNetEdge and jPrivate entries
	extFree  []int32 // unused ext slots
	pendings []pendJournal
}

// span returns the entry range [lo, hi) of statements [from, to).
func (j *journal) span(from, to int) (lo, hi int) {
	if from > 0 {
		lo = int(j.ends[from-1])
	}
	hi = lo
	if to > from {
		hi = int(j.ends[to-1])
	}
	return lo, hi
}

func (j *journal) addExt(x jext) uint64 {
	if n := len(j.extFree); n > 0 {
		i := j.extFree[n-1]
		j.extFree = j.extFree[:n-1]
		j.ext[i] = x
		return uint64(i)
	}
	j.ext = append(j.ext, x)
	return uint64(len(j.ext) - 1)
}

func (j *journal) freeExt(i uint64) {
	j.ext[i] = jext{}
	j.extFree = append(j.extFree, int32(i))
}

// fileState is one current input and its journal.
type fileState struct {
	id   int32 // stable id; eng.posOf[id] is its current input position
	name string
	frag *parser.Fragment
	win  parser.Window // what Rescan scanned anew against the previous version
	j    journal

	// Scope sensitivity, computed once per fragment: private bindings
	// are positional within a file, so a private declared at or after
	// an edit rebinds names the replayed statements resolve (lastPrivate
	// is the index of the last one, -1 if none); mid-stream file{}
	// scope switches can rebind names for *other* files and force a
	// full journal rebuild.
	lastPrivate   int
	hasFileSwitch bool
}

// linkSig is a link's captured prior state for change derivation.

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
	}
	return &e.nstates[n.ID]
}

// ghost reports whether node id is a ghost: no current statement names
// it, so it stays invisible until a statement names it again. Only a
// node older than the update can be one (the refcounts cover those); a
// node this update created has its references counted once its
// statements have replayed. Safe under the read lock.
func (e *core) ghost(id int32) bool {
	return id < e.firstNewNode && e.refs[id] == 0
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
		flags: l.Flags}
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
		if l.Cost != sig.cost || l.Op != sig.op || l.Flags != sig.flags {
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
	ghost := e.ghost(id32(n))
	if ns.del > 0 || ghost {
		fl |= graph.FDeleted
	}
	if ns.gwReq > 0 || len(n.Gateways()) > 0 {
		fl |= graph.FGatewayed
	}
	adj := ns.adjust
	if !ghost && len(e.avoid) > 0 && e.avoid[n.Name] {
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

// count adds the references ents hold (jent.refs) to the refcounts, in
// one pass once their statements have replayed. A patch counts its new
// range before it undoes the old one, so a reference both versions hold
// never passes through zero.
func (e *core) count(ents []jent) {
	e.growRefs()
	for i := range ents {
		en := &ents[i]
		if en.refs > 0 {
			e.addRef(en.a)
		}
		if en.refs > 1 {
			e.addRef(en.b)
		}
	}
}

// growRefs extends the refcounts over every node.
func (e *core) growRefs() {
	if n := e.g.Len(); n > len(e.refs) {
		e.refs = append(e.refs, make([]int32, n-len(e.refs))...)
	}
}

// addRef counts one reference to node id.
func (e *core) addRef(id int32) {
	e.refs[id]++
	if e.refs[id] == 1 {
		e.firstRef(id)
	}
}

// firstRef handles node id's refcount leaving zero. A node this update
// created makes the update grown: node IDs only ever append, so existing
// labels stay valid and the vantage machines re-base their cached tie
// keys onto the new ranks (mapper.RebaseGrow) instead of falling back to
// a full re-map. It also needs its derived attributes initialized when
// the avoid list names it (nothing else triggers a recompute). An older
// node was a ghost and comes back.
func (e *core) firstRef(id int32) {
	n := e.node(id)
	if id >= e.firstNewNode {
		e.ch.grown = true
		if len(e.avoid) == 0 || !e.avoid[n.Name] {
			return
		}
	}
	e.recomputeNode(n)
}

// unref drops one reference to node id; the node turns into a ghost
// when no current statement names it.
func (e *core) unref(id int32) {
	e.refs[id]--
	if e.refs[id] == 0 {
		e.recomputeNode(e.node(id))
	}
}

// rec journals one effect of the statement being replayed.
func (e *core) rec(en jent) { e.jw = append(e.jw, en) }

func id32(n *graph.Node) int32 { return int32(n.ID) }

// addGateway journals one gateway contribution (net, host), holding
// refs references on the pair.
func (e *core) addGateway(net, host *graph.Node, refs uint8) {
	e.rec(jent{kind: jGateway, a: id32(net), b: id32(host), refs: refs})
	key := pairKey(id32(net), id32(host))
	e.gwPairs[key]++
	if e.gwPairs[key] == 1 {
		e.captureAttr(net)
		e.g.AddGateway(net, host)
		e.recomputeNode(net)
	}
}

// declare journals one ordinary link declaration under the next
// sequence key, chains its record into the link's declarations in global
// order, and re-costs the link to the chain's winner.
func (e *core) declare(f *fileState, from, to *graph.Node, c cost.Cost, op graph.Op) {
	if from == to {
		e.g.CountSelfLink()
		e.rec(jent{kind: jRef, a: id32(from), b: id32(to), refs: 2})
		return
	}
	r := e.newDecl(declRec{seq: e.nextSeq, cost: c, file: f.id, op: op})
	e.nextSeq += e.seqStep
	e.rec(jent{kind: jDecl, a: id32(from), b: id32(to), x: uint64(r), refs: 2})

	l, created := e.g.AddLinkAt(from, to, c, op)
	if created {
		l.Decl = r
		e.trackNewLink(l)
		return
	}
	e.g.CountDupLink()
	// After every record that does not come after it.
	p := &l.Decl
	for *p != 0 && !e.declAfter(*p, r) {
		p = &e.decls[*p].next
	}
	e.decls[r].next, *p = *p, r
	e.reconcile(l)
}

// newDecl stores rec in a free record of core.decls and returns its index.
func (e *core) newDecl(rec declRec) int32 {
	if r := e.declFree; r != 0 {
		e.declFree = e.decls[r].next
		e.decls[r] = rec
		return r
	}
	e.decls = append(e.decls, rec)
	return int32(len(e.decls) - 1)
}

// undeclare unchains record r from l's declarations, frees it, and
// reconciles l with the declarations left.
func (e *core) undeclare(l *graph.Link, r int32) {
	p := &l.Decl
	for *p != r {
		p = &e.decls[*p].next
	}
	*p = e.decls[r].next
	e.decls[r] = declRec{next: e.declFree}
	e.declFree = r
	e.reconcile(l)
}

// declAfter reports whether record a comes after record b in global
// declaration order.
func (e *core) declAfter(a, b int32) bool {
	ra, rb := &e.decls[a], &e.decls[b]
	if pa, pb := e.posOf[ra.file], e.posOf[rb.file]; pa != pb {
		return pa > pb
	}
	return ra.seq > rb.seq
}

// reconcile makes l match its declaration chain: removed when the chain
// is empty, else re-costed to the chain's winner — the first declaration
// in global order achieving the minimum cost, exactly AddLink's
// duplicate fold.
func (e *core) reconcile(l *graph.Link) {
	if l.Decl == 0 {
		e.removeLinkTracked(l)
		return
	}
	w := &e.decls[l.Decl]
	for r := w.next; r != 0; r = e.decls[r].next {
		if e.decls[r].cost < w.cost {
			w = &e.decls[r]
		}
	}
	if l.Cost != w.cost || l.Op != w.op {
		e.setLinkCostTracked(l, w.cost, w.op)
	}
}

// apply replays f's whole fragment into the graph under a fresh
// journal, its declarations keyed seqGap apart. The fragment must be
// error-free (the engine rejects input sets with syntax errors).
func (e *core) apply(f *fileState) {
	n := f.frag.Stmts()
	e.jw, e.jends = make([]jent, 0, n+n/8), make([]int32, 0, n)
	e.nextSeq, e.seqStep = seqGap, seqGap
	f.j = journal{}
	e.replay(f, 0, n)
	f.j.ents, f.j.ends = e.jw, e.jends
	e.jw, e.jends = nil, nil
	e.refPendings(f)
}

// patch brings the graph from old's fragment to f's, both versions of
// one file, at statement granularity: only the statements between the
// fragments' common prefix and suffix are replayed and undone, the new
// ones first. f adopts old's file id and journal, with the replayed
// statements' entries spliced in place of the undone ones. An append
// is the case "old middle and suffix empty".
//
// patch reports false, having changed nothing, when the whole-file path
// must run instead: no room left between the sequence keys around the
// replaced statements, or a private declaration that changes how
// statements outside the replayed range resolve names. A binding
// applies to every later reference in the file, so only the whole-file
// undo-first order reproduces a fresh parse when a private sits in the
// old middle (its binding must go before anything resolves), in the
// suffix (the replayed statements come before it), or in the new middle
// with a suffix after it (the suffix is not replayed). A new middle
// that ends the file may declare privates, as an appended tail does.
func (e *core) patch(old, f *fileState) bool {
	p, s := f.frag.Common(old.frag, f.win)
	if old.lastPrivate >= p || (f.lastPrivate >= p && s > 0) {
		return false
	}
	oldHi, newHi := len(old.j.ends)-s, f.frag.Stmts()-s
	lo, hi := old.j.span(p, oldHi)
	if !e.placeSeqs(old.j.ents, lo, hi, newHi-p) {
		return false
	}
	f.id, f.j = old.id, old.j
	old.j = journal{}
	j := &f.j

	e.jw, e.jends = e.jwBuf[:0], e.jendsBuf[:0]
	e.replay(f, p, newHi)
	e.undoEnts(f, j.ents[lo:hi])
	e.timing.StmtsReplayed += oldHi - p

	// Splice: the replayed entries replace the undone ones, and the
	// statement offsets after them shift by the difference.
	shift := int32(len(e.jw) - (hi - lo))
	for i := range e.jends {
		e.jends[i] += int32(lo)
	}
	j.ents = slices.Replace(j.ents, lo, hi, e.jw...)
	j.ends = slices.Replace(j.ends, p, oldHi, e.jends...)
	if shift != 0 {
		for i := p + len(e.jends); i < len(j.ends); i++ {
			j.ends[i] += shift
		}
	}
	if cap(e.jw) <= maxPatchBuf {
		e.jwBuf, e.jendsBuf = e.jw[:0], e.jends[:0]
	}
	e.jw, e.jends = nil, nil

	// Pending items resolve their names after the whole file; a binding
	// the middle declared can change what they name.
	if f.lastPrivate >= p || !f.frag.SamePending(old.frag) {
		stale := j.pendings
		e.refPendings(f)
		e.unrefPendings(stale)
	}
	return true
}

// placeSeqs picks the sequence keys for n statements replayed in place
// of ents[lo:hi]: evenly spaced in the gap between the last declaration
// before lo and the first one from hi on. The replaced declarations keep
// their keys until they are undone, so when there are any the new keys
// go to the wider side of them. It reports false when the gap is too
// narrow.
func (e *core) placeSeqs(ents []jent, lo, hi, n int) bool {
	var below, above, first, last uint64
	for i := lo - 1; i >= 0; i-- {
		if ents[i].kind == jDecl {
			below = e.decls[ents[i].x].seq
			break
		}
	}
	bounded := false
	for i := hi; i < len(ents); i++ {
		if ents[i].kind == jDecl {
			above, bounded = e.decls[ents[i].x].seq, true
			break
		}
	}
	held := false
	for i := lo; i < hi; i++ {
		if ents[i].kind == jDecl {
			seq := e.decls[ents[i].x].seq
			if !held {
				first, held = seq, true
			}
			last = seq
		}
	}
	if held {
		if !bounded || above-last >= first-below {
			below = last
		} else {
			above, bounded = first, true
		}
	}
	if !bounded {
		if below > math.MaxUint64-uint64(n+1)*seqGap {
			return false
		}
		e.nextSeq, e.seqStep = below+seqGap, seqGap
		return true
	}
	step := (above - below) / uint64(n+1)
	if step == 0 {
		return false
	}
	e.nextSeq, e.seqStep = below+step, step
	return true
}

// replay applies statements [lo, hi) of f's fragment to the graph,
// journaling their effects to e.jw and each statement's end offset (in
// e.jw) to e.jends, then counts the references the entries hold.
// Declarations take keys from e.nextSeq on.
func (e *core) replay(f *fileState, lo, hi int) {
	e.timing.StmtsReplayed += hi - lo
	g := e.g
	g.BeginFile(f.name)
	e.names.Reset()
	f.frag.OpsRange(lo, hi, func(op *parser.ReplayOp) bool {
		switch op.Kind {
		case parser.ReplayRef:
			e.rec(jent{kind: jRef, a: id32(e.names.Ref(g, op.A)), refs: 1})
		case parser.ReplayLink:
			from := e.names.Ref(g, op.A)
			to := e.names.Dest(g, op.B)
			if op.Dom {
				e.addGateway(to, from, 0)
			}
			e.declare(f, from, to, op.Cost, op.LinkOp)
		case parser.ReplayNet:
			net := g.Ref(op.A)
			e.rec(jent{kind: jNet, a: id32(net), refs: 1})
			ns := e.nstate(net)
			ns.net++
			if ns.net == 1 {
				e.recomputeNode(net)
			}
			for _, name := range op.Members {
				m := g.Ref(name)
				if m == net {
					g.CountSelfLink()
					e.rec(jent{kind: jRef, a: id32(m), refs: 1})
					continue
				}
				entryCost := op.Cost
				if m.IsDomain() && net.IsDomain() {
					entryCost = cost.Infinity
				}
				entry, member := g.AddNetEdges(net, m, entryCost, op.LinkOp)
				slot := f.j.addExt(jext{entry: entry, member: member})
				e.rec(jent{kind: jNetEdge, a: id32(m), b: id32(net), x: slot, refs: 1})
				e.trackNewLink(entry)
				e.trackNewLink(member)
				if net.IsDomain() && !m.IsDomain() {
					e.addGateway(net, m, 0)
				}
			}
		case parser.ReplayAlias:
			a := g.Ref(op.A)
			b := g.Ref(op.B)
			if a == b {
				g.CountSelfLink()
				e.rec(jent{kind: jRef, a: id32(a), b: id32(b), refs: 2})
				break
			}
			e.rec(jent{kind: jAlias, a: id32(a), b: id32(b), refs: 2})
			key := aliasKey(a, b)
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
			e.names.Reset() // the private declaration rebinds its name
			p := g.DeclarePrivate(op.A)
			file := g.CurrentFile()
			e.rec(jent{kind: jPrivate, a: id32(p), x: f.j.addExt(jext{file: file}), refs: 1})
			e.privCount[privKey(p.Name, file)]++
		case parser.ReplayDeadHost:
			n := g.Ref(op.A)
			e.rec(jent{kind: jDead, a: id32(n), refs: 1})
			ns := e.nstate(n)
			ns.dead++
			if ns.dead == 1 {
				e.recomputeNode(n)
			}
		case parser.ReplayDeleteHost:
			n := g.Ref(op.A)
			e.rec(jent{kind: jDelete, a: id32(n), refs: 1})
			ns := e.nstate(n)
			ns.del++
			if ns.del == 1 {
				e.recomputeNode(n)
				// Edges into n vanish from other nodes' snapshot rows.
				e.ch.structural = true
			}
		case parser.ReplayGatewayed:
			n := g.Ref(op.A)
			e.rec(jent{kind: jGatewayed, a: id32(n), refs: 1})
			ns := e.nstate(n)
			ns.gwReq++
			if ns.gwReq == 1 {
				e.recomputeNode(n)
			}
		case parser.ReplayGateway:
			net := g.Ref(op.A)
			host := g.Ref(op.B)
			e.addGateway(net, host, 2)
		case parser.ReplayAdjust:
			n := g.Ref(op.A)
			e.rec(jent{kind: jAdjust, a: id32(n), x: uint64(op.Cost), refs: 1})
			e.nstate(n).adjust += op.Cost
			e.recomputeNode(n)
		case parser.ReplayFile:
			e.names.Reset() // private bindings differ across scopes
			g.BeginFile(op.A)
		}
		e.jends = append(e.jends, int32(len(e.jw)))
		return true
	})
	e.names.Reset()
	e.count(e.jw)
}

func aliasKey(a, b *graph.Node) uint64 {
	return pairKey(min(id32(a), id32(b)), max(id32(a), id32(b)))
}

func privKey(name, file string) string { return file + "\x00" + name }

// refPendings journals f's deferred dead/delete link items and
// references their names now, in the scope they will resolve in, so
// the refcounts cover them.
func (e *core) refPendings(f *fileState) {
	ps := f.frag.PendingLinks()
	if len(ps) == 0 {
		f.j.pendings = nil
		return
	}
	f.j.pendings = make([]pendJournal, len(ps))
	for i, p := range ps {
		p.From = strings.Clone(p.From)
		p.To = strings.Clone(p.To)
		p.File = strings.Clone(p.File)
		p.Pos = strings.Clone(p.Pos)
		e.g.BeginFile(p.File)
		from, to := id32(e.g.Ref(p.From)), id32(e.g.Ref(p.To))
		e.growRefs()
		e.addRef(from)
		e.addRef(to)
		f.j.pendings[i] = pendJournal{PendingLink: p, from: from, to: to}
	}
}

func (e *core) unrefPendings(ps []pendJournal) {
	for _, p := range ps {
		e.unref(p.from)
		e.unref(p.to)
	}
}

// undo reverses every effect of f's journal.
func (e *core) undo(f *fileState) {
	e.timing.StmtsReplayed += len(f.j.ends)
	e.undoEnts(f, f.j.ents)
	e.unrefPendings(f.j.pendings)
	f.j = journal{}
}

// undoEnts reverses the effects of ents, a range of f's journal, last
// first.
func (e *core) undoEnts(f *fileState, ents []jent) {
	g := e.g
	for i := len(ents) - 1; i >= 0; i-- {
		en := &ents[i]
		switch en.kind {
		case jDecl:
			e.undeclare(g.FindLink(e.node(en.a), e.node(en.b)), int32(en.x))
		case jGateway:
			key := pairKey(en.a, en.b)
			e.gwPairs[key]--
			if e.gwPairs[key] == 0 {
				delete(e.gwPairs, key)
				net := e.node(en.a)
				e.captureAttr(net)
				g.RemoveGateway(net, e.node(en.b))
				e.recomputeNode(net)
			}
		case jNet:
			n := e.node(en.a)
			ns := e.nstate(n)
			ns.net--
			if ns.net == 0 {
				e.recomputeNode(n)
			}
		case jNetEdge:
			x := f.j.ext[en.x]
			e.removeLinkTracked(x.entry)
			e.removeLinkTracked(x.member)
			f.j.freeExt(en.x)
		case jAlias:
			key := aliasKey(e.node(en.a), e.node(en.b))
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
		case jPrivate:
			name, file := e.node(en.a).Name, f.j.ext[en.x].file
			k := privKey(name, file)
			e.privCount[k]--
			if e.privCount[k] == 0 {
				delete(e.privCount, k)
				g.UndeclarePrivate(name, file)
			}
			f.j.freeExt(en.x)
		case jDead:
			n := e.node(en.a)
			ns := e.nstate(n)
			ns.dead--
			if ns.dead == 0 {
				e.recomputeNode(n)
			}
		case jDelete:
			n := e.node(en.a)
			ns := e.nstate(n)
			ns.del--
			if ns.del == 0 {
				e.recomputeNode(n)
				e.ch.structural = true
			}
		case jGatewayed:
			n := e.node(en.a)
			ns := e.nstate(n)
			ns.gwReq--
			if ns.gwReq == 0 {
				e.recomputeNode(n)
			}
		case jAdjust:
			n := e.node(en.a)
			e.nstate(n).adjust -= cost.Cost(en.x)
			e.recomputeNode(n)
		}
		switch en.refs {
		case 2:
			e.unref(en.b)
			e.unref(en.a)
		case 1:
			e.unref(en.a)
		}
	}
}
