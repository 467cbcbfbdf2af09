// Package graph implements the pathalias connectivity graph.
//
// From "DATA STRUCTURES": the world is modeled as hosts and networks
// (nodes) joined by communication links (directed, weighted edges labeled
// with routing syntax). A node holds a pointer to a singly-linked list of
// links; each link holds the destination node, a cost, flags, and the
// routing operator. This package reproduces that representation, along
// with the paper's treatment of:
//
//   - networks: a clique is compressed to a hub node with a pair of edges
//     per member — members pay the declared cost to enter the network and
//     leave it for free (the Port Authority toll analogy);
//   - aliases: "aliases are a property of edges, not vertices" — a pair of
//     zero-cost ALIAS edges joins the names, with no primary name;
//   - domains: names beginning with '.'; domains are networks that always
//     require gateways, and the edge from a subdomain to its parent domain
//     is essentially infinite;
//   - private hosts: a "private" declaration scopes a name to the end of
//     the file declaring it, so identically named hosts elsewhere remain
//     distinct;
//   - dead/deleted hosts and links, and per-host cost adjustments.
//
// Nodes and links are allocated from arenas (package arena), matching the
// paper's buffered-sbrk allocation strategy, and names are interned in the
// paper's double-hashing table (package hash).
package graph

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"pathalias/internal/arena"
	"pathalias/internal/cost"
	"pathalias/internal/hash"
)

// Dir says which side of the routing operator the host name takes.
type Dir uint8

const (
	// DirLeft is UUCP convention: host!user — host on the left.
	DirLeft Dir = iota
	// DirRight is ARPANET convention: user@host — host on the right.
	DirRight
)

func (d Dir) String() string {
	if d == DirRight {
		return "RIGHT"
	}
	return "LEFT"
}

// Op is a link's routing operator: the character used to build an address,
// and which side of it the host name appears on.
type Op struct {
	Char byte
	Dir  Dir
}

// DefaultOp is UUCP syntax: host!user.
var DefaultOp = Op{Char: '!', Dir: DirLeft}

// OpFor returns the conventional operator for a routing character: '@'
// puts the host on the right, everything else on the left.
func OpFor(c byte) Op {
	if c == '@' {
		return Op{Char: '@', Dir: DirRight}
	}
	return Op{Char: c, Dir: DirLeft}
}

func (o Op) String() string { return fmt.Sprintf("%c/%s", o.Char, o.Dir) }

// NodeFlags describe a node.
type NodeFlags uint16

const (
	// FNet marks a network hub node.
	FNet NodeFlags = 1 << iota
	// FDomain marks a domain (name begins with '.'). Domains are networks.
	FDomain
	// FPrivate marks a file-scoped host.
	FPrivate
	// FGatewayed marks a network that requires an explicit gateway;
	// domains are always gatewayed.
	FGatewayed
	// FDead marks a host to be avoided at (nearly) all cost.
	FDead
	// FDeleted removes a host from consideration entirely.
	FDeleted
)

// LinkFlags describe a link.
type LinkFlags uint16

const (
	// LAlias is a zero-cost edge joining two names for one machine.
	LAlias LinkFlags = 1 << iota
	// LNetMember is the free network→member edge.
	LNetMember
	// LNetEntry is the paid member→network edge.
	LNetEntry
	// LDead marks a link to be avoided at (nearly) all cost.
	LDead
	// LDeleted removes a link from consideration entirely.
	LDeleted
	// LBack is an invented reverse link (the back-link pass for
	// unreachable hosts). Invented links live on the mapper's Result,
	// never in the graph.
	LBack
)

// MapState is the mapper's three-set classification of a node:
// "mapped vertices, to which optimal paths are known; queued vertices, for
// which a candidate path has been found; and unmapped vertices, which are
// not yet reachable."
type MapState uint8

const (
	Unmapped MapState = iota
	Queued
	Mapped
)

func (s MapState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Mapped:
		return "mapped"
	default:
		return "unmapped"
	}
}

// Node represents a host, network, or domain.
type Node struct {
	Name  string
	ID    int // dense creation index; deterministic iteration order
	Flags NodeFlags
	File  string // file of first reference; for privates, the binding file

	// Adjust is a per-host cost bias applied when a path relays through
	// the host (the "adjust" command).
	Adjust cost.Cost

	// links is the singly-linked adjacency list, kept in declaration
	// order (head plus tail pointer for O(1) append).
	links    *Link
	linkTail *Link

	// gateways lists declared gateways when FGatewayed is set.
	gateways []*Node
}

// Link is one directed edge in the adjacency list.
type Link struct {
	From  *Node
	To    *Node
	Next  *Link
	Cost  cost.Cost
	Op    Op
	Flags LinkFlags

	// Decl is a slot for the owner of an ordinary link's declarations:
	// the incremental engine (internal/remap) keeps the index of the
	// first record of the link's declaration chain here, 0 for none. The
	// graph never reads or writes it; it fills what would otherwise be
	// padding, so a Link stays 40 bytes.
	Decl int32
}

// IsNet reports whether n is a network or domain hub.
func (n *Node) IsNet() bool { return n.Flags&(FNet|FDomain) != 0 }

// IsDomain reports whether n is a domain.
func (n *Node) IsDomain() bool { return n.Flags&FDomain != 0 }

// IsPrivate reports whether n is file-scoped.
func (n *Node) IsPrivate() bool { return n.Flags&FPrivate != 0 }

// IsDeleted reports whether n has been deleted.
func (n *Node) IsDeleted() bool { return n.Flags&FDeleted != 0 }

// IsDead reports whether n is marked dead.
func (n *Node) IsDead() bool { return n.Flags&FDead != 0 }

// Links iterates over the adjacency list in declaration order, calling fn
// for each link until fn returns false.
func (n *Node) Links(fn func(*Link) bool) {
	for l := n.links; l != nil; l = l.Next {
		if !fn(l) {
			return
		}
	}
}

// FirstLink returns the head of the adjacency list (nil if none), for
// callers that iterate manually.
func (n *Node) FirstLink() *Link { return n.links }

// Degree returns the number of out-links.
func (n *Node) Degree() int {
	d := 0
	for l := n.links; l != nil; l = l.Next {
		d++
	}
	return d
}

// IsGateway reports whether host is a declared gateway of network n.
func (n *Node) IsGateway(host *Node) bool {
	for _, g := range n.gateways {
		if g == host {
			return true
		}
	}
	return false
}

// Gateways returns the declared gateways of n.
func (n *Node) Gateways() []*Node { return n.gateways }

func (n *Node) String() string {
	var attrs []string
	if n.IsDomain() {
		attrs = append(attrs, "domain")
	} else if n.IsNet() {
		attrs = append(attrs, "net")
	}
	if n.IsPrivate() {
		attrs = append(attrs, "private")
	}
	if n.IsDead() {
		attrs = append(attrs, "dead")
	}
	if n.IsDeleted() {
		attrs = append(attrs, "deleted")
	}
	if len(attrs) == 0 {
		return n.Name
	}
	return n.Name + "[" + strings.Join(attrs, ",") + "]"
}

// Usable reports whether the link participates in mapping.
func (l *Link) Usable() bool {
	return l.Flags&LDeleted == 0 && l.To.Flags&FDeleted == 0 && l.From.Flags&FDeleted == 0
}

func (l *Link) String() string {
	return fmt.Sprintf("%s -> %s (%v, %v, %b)", l.From.Name, l.To.Name, l.Cost, l.Op, l.Flags)
}

// Stats counts what the graph holds, for -v output and experiments.
type Stats struct {
	Nodes      int // total nodes, including networks and privates
	Hosts      int // non-network nodes
	Nets       int // network hubs (including domains)
	Domains    int
	Privates   int
	Links      int // total directed edges
	AliasEdges int // edges flagged LAlias
	DupLinks   int // duplicate declarations folded into existing links
	SelfLinks  int // self-loop declarations ignored
	HashStats  hash.Stats
}

// Graph is the connectivity graph under construction and analysis.
type Graph struct {
	table     *hash.Table[*nameEntry]
	nodes     []*Node
	curFile   string
	nodePool  *arena.Pool[Node]
	linkPool  *arena.Pool[Link]
	entryPool *arena.Pool[nameEntry]
	names     *arena.ByteArena
	foldCase  bool

	// linkIdx indexes ordinary (non-alias, non-network-bookkeeping) links
	// by (from,to) node ID, so duplicate-link folding and FindLink are O(1)
	// instead of an adjacency scan — on hub nodes with thousands of links
	// the scan made graph construction quadratic.
	linkIdx *linkTable

	dupLinks  int
	selfLinks int

	// Name-rank cache for Snapshot: ranks depend only on the node list
	// (names are immutable after creation), so they are computed once and
	// refreshed only when nodes have been added since.
	rankCache   []int32
	byRankCache []int32

	// snapCache is the memoized CSR snapshot, dropped by any mutating
	// method (see Snapshot). snapSpare parks a displaced snapshot's
	// buffers for SnapshotPatched to recycle, and rowBuf holds the rows
	// it rebuilds.
	snapCache *Snapshot
	snapSpare *Snapshot
	rowBuf    rowPatch

	// attrDirty lists the nodes whose flags, adjustment or gateway set
	// a method wrote since attrBase, the latest snapshot built, was
	// built (nil attrBase: not recorded); see markAttr.
	attrBase  *Snapshot
	attrDirty []int32

	// gwEpoch versions the union of all gateway sets, letting a patched
	// snapshot reuse the previous gateway map when nothing changed.
	gwEpoch uint64
}

// nameEntry resolves one name to its global node and any file-scoped
// private nodes. name is the interned canonical spelling, the one nodes
// carry.
type nameEntry struct {
	name     string
	global   *Node
	privates []*Node // Node.File identifies the binding file
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		table:     hash.New[*nameEntry](),
		nodePool:  arena.NewPool[Node](arena.DefaultSlabSize),
		linkPool:  arena.NewPool[Link](arena.DefaultSlabSize),
		entryPool: arena.NewPool[nameEntry](arena.DefaultSlabSize),
		names:     arena.NewByteArena(arena.DefaultByteSlabSize),
		linkIdx:   newLinkTable(0),
	}
}

// ReserveLinks presizes the duplicate-link index for about n ordinary
// links, avoiding incremental map growth during a large parse. Callers
// that know the input volume (the parser does) use it as a hint; it is
// never required for correctness.
func (g *Graph) ReserveLinks(n int) {
	g.linkIdx.reserve(n)
}

// ReserveNames presizes the name table for about n distinct names,
// skipping the intermediate rehashes of organic growth (hash.Reserve).
func (g *Graph) ReserveNames(n int) {
	g.table.Reserve(n)
}

// linkKey packs a (from, to) node pair into the linkIdx key.
func linkKey(from, to *Node) uint64 {
	return uint64(uint32(from.ID))<<32 | uint64(uint32(to.ID))
}

// SetFoldCase makes host-name resolution case-insensitive (the -i flag:
// "ignore case in host names"). It must be set before any name is
// referenced. Names are folded to lower case at resolution time, and the
// folded form is what nodes carry and output shows.
func (g *Graph) SetFoldCase(fold bool) {
	if len(g.nodes) > 0 {
		panic("graph: SetFoldCase after nodes exist")
	}
	g.foldCase = fold
}

// Fold returns name as the graph keys it under its case-folding
// policy (SetFoldCase).
func (g *Graph) Fold(name string) string {
	if !g.foldCase {
		return name
	}
	return strings.ToLower(name)
}

// BeginFile starts a new input file scope. Private declarations bind until
// the next BeginFile ("the scope of a private declaration extends to the
// end of the file in which it is declared").
func (g *Graph) BeginFile(name string) { g.curFile = name }

// CurrentFile returns the active file scope.
func (g *Graph) CurrentFile() string { return g.curFile }

// newNode allocates and registers a node.
func (g *Graph) newNode(name string, flags NodeFlags) *Node {
	g.snapCache = nil
	n := g.nodePool.New()
	n.Name = name
	n.ID = len(g.nodes)
	n.Flags = flags
	n.File = g.curFile
	if strings.HasPrefix(name, ".") {
		// Domains are networks that require gateways.
		n.Flags |= FDomain | FGatewayed
	}
	g.nodes = append(g.nodes, n)
	return n
}

// entryFor returns the nameEntry for name, creating it if needed. The name
// argument may be a transient substring of a map source (the scanner's
// zero-copy tokens); on first sight it is interned into the graph's byte
// arena, and e.name is that canonical copy, so the graph never retains a
// reference into input text.
func (g *Graph) entryFor(name string) *nameEntry {
	e, _ := g.table.GetOrInsertKeyed(name, g.names.Intern, func(canon string) *nameEntry {
		e := g.entryPool.New()
		e.name = canon
		return e
	})
	return e
}

// Ref resolves name in the current file scope, creating a global node on
// first reference. If the current file has declared the name private, the
// private node is returned instead.
func (g *Graph) Ref(name string) *Node {
	name = g.Fold(name)
	e := g.entryFor(name)
	for _, p := range e.privates {
		if p.File == g.curFile {
			return p
		}
	}
	if e.global == nil {
		e.global = g.newNode(e.name, 0)
	}
	return e.global
}

// DeclarePrivate binds name to a fresh private node for the current file
// and returns it. References to the name later in this file resolve to the
// private node; references in other files do not. Declaring the same name
// private twice in one file is idempotent.
func (g *Graph) DeclarePrivate(name string) *Node {
	name = g.Fold(name)
	e := g.entryFor(name)
	for _, p := range e.privates {
		if p.File == g.curFile {
			return p
		}
	}
	p := g.newNode(e.name, FPrivate)
	e.privates = append(e.privates, p)
	return p
}

// Lookup returns the global node for name without creating one.
func (g *Graph) Lookup(name string) (*Node, bool) {
	e, ok := g.table.Lookup(g.Fold(name))
	if !ok || e.global == nil {
		return nil, false
	}
	return e.global, true
}

// Nodes returns all nodes in creation order. The slice is shared; callers
// must not modify it.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// FindLink returns the existing link from one node to another, ignoring
// alias and network bookkeeping edges, or nil. The lookup is O(1) through
// the link index; at most one such link exists per node pair because
// AddLink folds duplicates.
func (g *Graph) FindLink(from, to *Node) *Link {
	return g.linkIdx.get(linkKey(from, to))
}

// appendLink allocates a link and appends it to from's adjacency list.
// Ordinary links are indexed by the caller (AddLink), which has already
// probed the dedup table.
func (g *Graph) appendLink(from, to *Node, c cost.Cost, op Op, fl LinkFlags) *Link {
	g.snapCache = nil
	l := g.linkPool.New()
	l.From = from
	l.To = to
	l.Cost = c
	l.Op = op
	l.Flags = fl
	if from.linkTail == nil {
		from.links = l
	} else {
		from.linkTail.Next = l
	}
	from.linkTail = l
	return l
}

// AddLink declares a link from → to with the given cost and operator.
// Self-links are ignored. A duplicate declaration of an existing ordinary
// link does not create a second edge: the cheaper cost wins (resolving the
// "duplicate connection data" the paper describes), and the operator of
// the surviving cost's declaration is kept.
func (g *Graph) AddLink(from, to *Node, c cost.Cost, op Op, fl LinkFlags) *Link {
	if from == to {
		g.selfLinks++
		return nil
	}
	if fl&(LAlias|LNetMember|LNetEntry) == 0 {
		// One probe serves both the duplicate check and the insertion.
		key := linkKey(from, to)
		i := g.linkIdx.slot(key)
		if g.linkIdx.slots[i].key == key {
			dup := g.linkIdx.slots[i].val
			g.dupLinks++
			if c < dup.Cost {
				g.snapCache = nil
				dup.Cost = c
				dup.Op = op
				dup.Flags = fl
			}
			return dup
		}
		l := g.appendLink(from, to, c, op, fl)
		g.linkIdx.putAt(i, key, l)
		return l
	}
	return g.appendLink(from, to, c, op, fl)
}

// AddAlias joins two names for the same machine with a pair of zero-cost
// ALIAS edges ("we discard the notion of a primary host name and treat all
// aliases as equal").
func (g *Graph) AddAlias(a, b *Node) {
	if a == b {
		g.selfLinks++
		return
	}
	// Idempotent: adding the same alias twice is harmless but shouldn't
	// duplicate edges.
	for l := a.links; l != nil; l = l.Next {
		if l.To == b && l.Flags&LAlias != 0 {
			return
		}
	}
	g.appendLink(a, b, 0, DefaultOp, LAlias)
	g.appendLink(b, a, 0, DefaultOp, LAlias)
}

// AddNet declares members of network net with the given entry cost and
// operator. Each member gets a paid member→net edge and a free net→member
// edge. If a member is itself a domain and net is a domain, the
// member→net edge is the subdomain→parent edge and costs Infinity ("this
// imposes a heavy cost penalty, essentially infinite, on the edge from a
// subdomain to its parent").
//
// Member hosts of a gatewayed network are NOT automatically gateways; the
// paper's point is that the ARPANET has 2,000 members and "only a
// (literal) handful provide gateway services". Domains are the exception:
// declaring members of a domain makes those members its gateways (the
// .rutgers.edu masquerade: "This makes caip a gateway for .rutgers.edu").
func (g *Graph) AddNet(net *Node, members []*Node, c cost.Cost, op Op) {
	g.snapCache = nil
	g.markAttr(net)
	net.Flags |= FNet
	for _, m := range members {
		if m == net {
			g.selfLinks++
			continue
		}
		entry := c
		if m.IsDomain() && net.IsDomain() {
			entry = cost.Infinity
		}
		g.appendLink(m, net, entry, op, LNetEntry)
		g.appendLink(net, m, 0, op, LNetMember)
		if net.IsDomain() && !m.IsDomain() {
			g.AddGateway(net, m)
		}
	}
}

// MarkGatewayed declares that a network requires an explicit gateway:
// paths entering it through a non-gateway member are severely penalized.
func (g *Graph) MarkGatewayed(net *Node) {
	g.snapCache = nil
	g.markAttr(net)
	net.Flags |= FGatewayed
}

// AddGateway declares host a gateway of network net.
func (g *Graph) AddGateway(net, host *Node) {
	g.snapCache = nil
	g.markAttr(net)
	if !net.IsGateway(host) {
		net.gateways = append(net.gateways, host)
		g.gwEpoch++
	}
	net.Flags |= FGatewayed
}

// MarkDead marks a host dead: paths to or through it are penalized.
func (g *Graph) MarkDead(n *Node) {
	g.snapCache = nil
	g.markAttr(n)
	n.Flags |= FDead
}

// MarkDeadLink marks the declared link from → to dead. It reports whether
// such a link exists.
func (g *Graph) MarkDeadLink(from, to *Node) bool {
	if l := g.FindLink(from, to); l != nil {
		g.snapCache = nil
		l.Flags |= LDead
		return true
	}
	return false
}

// Delete removes a host from consideration.
func (g *Graph) Delete(n *Node) {
	g.snapCache = nil
	g.markAttr(n)
	n.Flags |= FDeleted
}

// DeleteLink removes the declared link from → to. It reports whether such
// a link existed.
func (g *Graph) DeleteLink(from, to *Node) bool {
	if l := g.FindLink(from, to); l != nil {
		g.snapCache = nil
		l.Flags |= LDeleted
		return true
	}
	return false
}

// AdjustNode accumulates a per-transit cost bias for a host.
func (g *Graph) AdjustNode(n *Node, delta cost.Cost) {
	g.snapCache = nil
	g.markAttr(n)
	n.Adjust += delta
}

// Stats summarizes the graph.
func (g *Graph) Stats() Stats {
	st := Stats{
		Nodes:     len(g.nodes),
		DupLinks:  g.dupLinks,
		SelfLinks: g.selfLinks,
		HashStats: g.table.Stats(),
	}
	for _, n := range g.nodes {
		if n.IsNet() {
			st.Nets++
			if n.IsDomain() {
				st.Domains++
			}
		} else {
			st.Hosts++
		}
		if n.IsPrivate() {
			st.Privates++
		}
		for l := n.links; l != nil; l = l.Next {
			st.Links++
			if l.Flags&LAlias != 0 {
				st.AliasEdges++
			}
		}
	}
	return st
}

// WriteTo emits the graph as canonical map text that the parser accepts,
// for round-trip testing and map normalization. Private declarations and
// file scoping are not represented (the writer flattens to one file);
// callers needing file fidelity must write per-file sections themselves.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}

	// Host links first, then nets, then aliases, then attributes —
	// grouped for readability, ordered by node ID for determinism.
	for _, n := range g.nodes {
		if n.IsDeleted() {
			continue
		}
		var parts []string
		for l := n.links; l != nil; l = l.Next {
			if l.Flags&(LAlias|LNetMember|LNetEntry|LBack|LDeleted) != 0 {
				continue
			}
			var sb strings.Builder
			if l.Op.Dir == DirRight {
				sb.WriteByte(l.Op.Char)
				sb.WriteString(l.To.Name)
			} else {
				sb.WriteString(l.To.Name)
				if l.Op != DefaultOp {
					sb.WriteByte(l.Op.Char)
				}
			}
			fmt.Fprintf(&sb, "(%d)", int64(l.Cost))
			parts = append(parts, sb.String())
		}
		if len(parts) > 0 {
			if err := emit("%s\t%s\n", n.Name, strings.Join(parts, ", ")); err != nil {
				return total, err
			}
		}
	}

	// Networks: reconstruct member lists from LNetMember edges. The
	// entry cost/op live on the member→net edges; a net declared with a
	// single cost has uniform entries, which is all the writer supports
	// (mixed entries are written as separate nets is not possible, so we
	// write per-member nets in that case).
	for _, n := range g.nodes {
		if !n.IsNet() || n.IsDeleted() {
			continue
		}
		type memberEdge struct {
			m     *Node
			entry *Link
		}
		var members []memberEdge
		for l := n.links; l != nil; l = l.Next {
			if l.Flags&LNetMember == 0 || l.Flags&LDeleted != 0 {
				continue
			}
			// Find the matching entry edge for the cost.
			var entry *Link
			for el := l.To.links; el != nil; el = el.Next {
				if el.To == n && el.Flags&LNetEntry != 0 {
					entry = el
					break
				}
			}
			if entry != nil {
				members = append(members, memberEdge{l.To, entry})
			}
		}
		if len(members) == 0 {
			continue
		}
		// Group members by (cost, op) so uniform nets round-trip to one
		// line.
		groups := map[string][]string{}
		var order []string
		for _, me := range members {
			c := me.entry.Cost
			if me.m.IsDomain() && n.IsDomain() {
				// Written cost is not the stored Infinity; the parser
				// will re-impose it. Use 0 as the canonical spelling.
				c = 0
			}
			key := fmt.Sprintf("%c|%d|%d", me.entry.Op.Char, me.entry.Op.Dir, int64(c))
			if _, seen := groups[key]; !seen {
				order = append(order, key)
			}
			groups[key] = append(groups[key], me.m.Name)
		}
		for _, key := range order {
			names := groups[key]
			var ch byte
			var dir, c int64
			fmt.Sscanf(key, "%c|%d|%d", &ch, &dir, &c)
			opPrefix := ""
			if ch != '!' || Dir(dir) != DirLeft {
				opPrefix = string(ch)
			}
			if err := emit("%s\t= %s{%s}(%d)\n", n.Name, opPrefix, strings.Join(names, ", "), c); err != nil {
				return total, err
			}
		}
	}

	// Aliases: each unordered pair once.
	for _, n := range g.nodes {
		for l := n.links; l != nil; l = l.Next {
			if l.Flags&LAlias != 0 && n.ID < l.To.ID {
				if err := emit("%s\t= %s\n", n.Name, l.To.Name); err != nil {
					return total, err
				}
			}
		}
	}

	// Attribute commands.
	var dead, gatewayed []string
	gateways := map[string][]string{}
	var gwOrder []string
	adjusts := map[string]cost.Cost{}
	var adjOrder []string
	for _, n := range g.nodes {
		if n.IsDead() {
			dead = append(dead, n.Name)
		}
		if n.Flags&FGatewayed != 0 && !n.IsDomain() {
			gatewayed = append(gatewayed, n.Name)
		}
		if len(n.gateways) > 0 && !n.IsDomain() {
			var names []string
			for _, gw := range n.gateways {
				names = append(names, gw.Name)
			}
			sort.Strings(names)
			gateways[n.Name] = names
			gwOrder = append(gwOrder, n.Name)
		}
		if n.Adjust != 0 {
			adjusts[n.Name] = n.Adjust
			adjOrder = append(adjOrder, n.Name)
		}
		for l := n.links; l != nil; l = l.Next {
			if l.Flags&LDead != 0 {
				dead = append(dead, n.Name+"!"+l.To.Name)
			}
		}
	}
	if len(dead) > 0 {
		if err := emit("dead\t{%s}\n", strings.Join(dead, ", ")); err != nil {
			return total, err
		}
	}
	if len(gatewayed) > 0 {
		if err := emit("gatewayed\t{%s}\n", strings.Join(gatewayed, ", ")); err != nil {
			return total, err
		}
	}
	for _, netName := range gwOrder {
		for _, gw := range gateways[netName] {
			if err := emit("gateway\t{%s!%s}\n", netName, gw); err != nil {
				return total, err
			}
		}
	}
	for _, name := range adjOrder {
		if err := emit("adjust\t{%s(%d)}\n", name, int64(adjusts[name])); err != nil {
			return total, err
		}
	}
	return total, nil
}
