// Package mapper computes the shortest-path tree over the connectivity
// graph — the second of pathalias's three phases.
//
// From "CALCULATING SHORTEST PATHS": the graph is sparse (e ∝ v), so
// instead of the O(v²) textbook Dijkstra the mapper runs "a modified
// breadth-first search ... [using] a priority queue and extract[ing]
// vertices in increasing order of path cost", giving O(e log v). The
// algorithm maintains three sets of vertices — mapped (optimal path
// known), queued (candidate path known), unmapped (not yet reachable) —
// and marks tree edges as it goes, unmarking and remarking on decrease-key.
//
// Two structural choices make the inner loop fast (DESIGN.md "Hot path"):
// the relax loop walks a CSR snapshot of the graph (graph.Snapshot) —
// flat index-addressed edge arrays — instead of chasing *Link list
// pointers, and the priority queue is a monotone bucket queue keyed
// directly on the integer path cost (pqueue.BucketQueue), with a binary
// heap fallback for the near-infinite penalty costs that exceed the bucket
// range. Priority ties are broken by (hops, name rank, taint), which both
// avoids string compares in the hot loop and keeps extraction order — and
// therefore output — independent of input file order.
//
// Path costs are edge-weight sums "subject to some heuristics": penalties
// for ambiguous syntax mixing, for entering gatewayed networks off-gateway,
// and for relaying through domains (see options.go). Because the penalties
// depend on how a path reached a node, cost is path-dependent — the paper:
// "this sullies our weighted graph model" — and the committed
// shortest-path tree can force bad routes for hosts beyond a tainted node
// (the PROBLEMS section). Options.SecondBest enables the paper's
// experimental fix: clean (domain-free) and tainted path labels are
// tracked separately per node, equivalent to Dijkstra over the state space
// node × {clean, tainted}.
//
// After the main run, unreachable hosts that declared outgoing links get
// invented reverse links ("back links") and mapping continues, so their
// routes are "generated by implication, rather than by explicit
// declaration".
//
// Mapping never writes the graph. The C original kept each node's mapping
// state in the node and added its back links to the graph, because one
// run owned the graph; here many runs — one per vantage point, plus
// what-if questions — map one shared graph and one shared CSR snapshot.
// Every run, one-shot (Run) or engine-driven (Machine), keeps its labels
// and invented links private, and its output lives only on the Result.
package mapper

import (
	"iter"
	"slices"

	"pathalias/internal/cost"
	"pathalias/internal/graph"
	"pathalias/internal/pqueue"
)

// Bucket queue geometry: 1<<bucketShift consecutive costs per bucket,
// bucketCount buckets, covering costs up to bucketCount<<bucketShift
// (524288) — comfortably above any unpenalized path on the paper's cost
// scale (a 17-hop WEEKLY path), far below the heuristic penalties
// (cost.Infinity/2 and up), which take the overflow heap.
const (
	bucketShift = 5
	bucketCount = 1 << 14
	minBuckets  = 1 << 10 // bucketGeometry's floor
	// geometries counts the queue shapes bucketGeometry can return.
	geometries = 5 // log2(bucketCount/minBuckets) + 1
)

// bucketGeometry shrinks the bucket count for small graphs — allocating
// and clearing 16384 bucket headers dwarfs a 500-node run — by coarsening
// the per-bucket cost span while keeping the same total range.
func bucketGeometry(n int) (buckets int, shift uint) {
	buckets, shift = bucketCount, bucketShift
	for buckets > minBuckets && buckets > 4*n {
		buckets >>= 1
		shift++
	}
	return buckets, shift
}

// label is one Dijkstra search state: a node together with the
// path-dependent heuristic state needed to extend the path. In normal
// mode each node has one label; in second-best mode each node has a clean
// label and a tainted (entered-a-domain) label.
//
// A label holds no pointers: its node is the snapshot's Nodes[id], and
// its tree edge sits beside it in machine.via. So a label array is
// copied (Machine.Clone) and cleared (FullRun) without write barriers,
// and the collector never scans it.
type label struct {
	id       int32 // node ID, the snapshot index
	inDomain bool  // path has entered a domain
	taint    int8  // which label slot this is (0 clean/only, 1 tainted)
	state    graph.MapState
	used     bool // the slot holds this node's label (labelFor); false in a zeroed slot

	cost    cost.Cost
	hops    int32
	phase   int32    // back-link round the path belongs to: 0 for declared links only, +1 per invented link
	tie     uint64   // packed (hops, rank, taint) secondary sort key
	parent  int32    // index in machine.labels of the label this path extends; -1 at the root
	viaOp   graph.Op // effective routing operator for the tree edge (member edges inherit)
	lastDir uint8    // 0 none, 1 LEFT, 2 RIGHT: last syntax-bearing hop
	mixes   uint8    // ambiguous alternations charged so far
	qb      int16    // bucket queue position: the bucket (< bucketCount, or negative off the buckets)
	changed bool     // recorded in machine.changed this warm run; dropUnchanged clears it
	qi      int32    // bucket queue position: the index in the bucket
}

// slot returns the index of node id's first label (its clean label,
// the only one outside SecondBest); node id's labels are the indices
// from slot(id) up to slot(id+1).
func (m *machine) slot(id int32) int32 { return id * m.stride }

// index returns lb's slot in machine.labels.
func (m *machine) index(lb *label) int32 { return m.slot(lb.id) + int32(lb.taint) }

// hasPath reports whether lb holds a path, mapped or queued.
func (lb *label) hasPath() bool { return lb.used && lb.state != graph.Unmapped }

// pathPhase returns lb's phase, or -1 when it holds no path.
func (lb *label) pathPhase() int32 {
	if !lb.hasPath() {
		return -1
	}
	return lb.phase
}

// Result reports a mapping run.
type Result struct {
	Source *graph.Node

	// Machine holds the run's labels: the shortest-path tree is read
	// through its Label, Winner and AppendChildren. They describe this
	// run until the machine runs again; the machine Run and RunArray
	// create never does.
	Machine *Machine

	Reached     int           // nodes with a finite-state label
	Unreachable []*graph.Node // hosts never reached, even via back links
	BackLinked  int           // hosts reached only via invented links
	Penalized   int           // hosts whose winning path paid a mixed-syntax penalty (E13)

	Extractions int64 // priority queue extractions
	Relaxations int64 // edge relaxations attempted
	MaxQueue    int   // high-water mark of the queue

	// Invented lists the back links the run invented, in invention
	// order (set by Run and RunArray). They exist only here: the graph
	// holds declared links alone.
	Invented []*graph.Link

	// inventedFrom indexes Invented by source node ID (the machine's
	// overlay).
	inventedFrom map[int32][]*graph.Link
}

// Links yields n's declared links, then the back links the run invented
// out of n. A nil Result, like the Result of a Machine run, yields the
// declared links alone.
func (r *Result) Links(n *graph.Node) iter.Seq[*graph.Link] {
	return func(yield func(*graph.Link) bool) {
		for l := n.FirstLink(); l != nil; l = l.Next {
			if !yield(l) {
				return
			}
		}
		if r == nil {
			return
		}
		for _, l := range r.inventedFrom[int32(n.ID)] {
			if !yield(l) {
				return
			}
		}
	}
}

// TreeEdge reports whether l is the edge into its target's winning
// label: a link on the run's winning paths. A nil Result has none.
func (r *Result) TreeEdge(l *graph.Link) bool {
	if r == nil {
		return false
	}
	w := r.Machine.Winner(l.To)
	return w >= 0 && r.Machine.Label(w).Via == l
}

// machine is the state of a mapping run. A Machine (see machine.go) keeps
// one alive across runs so the incremental re-map engine can warm-start
// it; the one-shot Run/RunArray entry points full-run a fresh one.
//
// The machine treats the graph and the snapshot as read-only shared
// state, so many machines can map the same graph, even concurrently:
// invented back links live in a private overlay (relaxed after the
// snapshot's own edges), and results are read from the labels.
type machine struct {
	g      *graph.Graph
	snap   *graph.Snapshot
	opts   Options
	stride int32         // labels per node: 1, or 2 under SecondBest
	labels []label       // node.ID*stride + taint
	via    []*graph.Link // labels[i]'s tree edge, from its parent's node; nil at the root and in unmapped labels
	queue  *pqueue.BucketQueue[*label]
	res    *Result

	// scanQueue replaces the bucket queue in the O(v²) baseline (array.go).
	useArray  bool
	scanQueue []*label
	queueGeom [2]int // geometry of the current queue, for Machine reuse

	// Warm-run bookkeeping (machine.go). warm enables label re-opening
	// bookkeeping and changed-label tracking; both are inert in full
	// runs. changedPh holds each changed label's phase as of the last
	// back-link check (-1 without a path), so the check re-examines only
	// the nodes whose phase moved (warmBackLinks). invented lists, in
	// invention order, the back links a full run invented (Result.
	// Invented); warm runs keep the overlay below exact instead.
	warm       bool
	changed    []int32 // label indices mutated this warm run (label.changed); FinishWarm keeps the changed ones
	changedOld []saved // changed[i]'s value when the run began, until dropUnchanged filters changed
	changedPh  []int32 // changed[i]'s phase at the last back-link check
	invented   []*graph.Link

	// Back links stay across warm runs. overlay holds them by source
	// node ID, overlayIdx by (from, to) pair — with the graph's
	// FindLink, the check that no link from a neighbor back to the host
	// exists yet — and revExtra by target: the source IDs seedInNeighbors
	// re-queues beside the snapshot's reverse adjacency. A warm run's
	// back-link check (backlink.go) starts from the (from, to) pairs of
	// links the engine reported changed (evPairs, LinkChanged) and the
	// nodes it marked dirty (evNodes, MarkNodeDirty), and collects its
	// decisions in drops and adds.
	overlay    map[int32][]*graph.Link
	overlayIdx map[uint64]*graph.Link
	revExtra   map[int32][]int32
	evPairs    [][2]int32
	evNodes    []int32
	drops      []*graph.Link
	adds       []backAdd

	// edits is a what-if overlay of hypothetical link edits (Machine.
	// UseEdits). The edits are baked into the patched snapshot the
	// machine runs against, back-link templates included (removed links
	// donate none, cost overrides carry into invented costs, added links
	// donate like any other), but whether a link nb→n blocks a back link
	// is a graph lookup, which must see the overlay's added links too.
	edits *graph.Overlay

	// kin holds the shortest-path tree as intrusive child lists, one
	// entry per label: rebuilt by a full run, kept exact through every
	// parent change of a warm one (setLabel, invalidateTree).
	kin []kin

	// Reverse adjacency (by node ID), the snapshot's shared one
	// (graph.Snapshot.Reverse), fetched per warm run: when a label is
	// invalidated — before the drain or in its midst — every mapped
	// in-neighbor is re-queued so the reset label receives all its
	// offers again, back-link sources (revExtra) included.
	revRow   []int32
	revFrom  []int32
	invStack []int32 // scratch for invalidateTree

	// Batched write-back (persistent across runs): each node's result
	// contribution as of the last write-back, so a warm run
	// reconsiders only the dirty nodes instead of walking every node
	// once per vantage per update — the O(V·N) term that dominated when
	// remap.Multi fanned an update out to hundreds of vantages.
	// wbUnreach keeps the unreachable node IDs in (rank, id) order;
	// wbDirty collects the run's dirty node IDs, duplicates included
	// (the write-back sorts and compacts them).
	wbValid     bool    // persistent state matches the labels (set by a full write-back)
	wbState     []uint8 // per node: wbReachedBit | wbBackBit | wbPenalBit | wbUnreachBit
	wbUnreach   []int32
	wbUnreachSp []int32 // merge spare, ping-ponged with wbUnreach
	wbReached   int
	wbBack      int
	wbPenal     int
	wbDirty     []int32
	wbGrownFrom int32 // first node ID appended by RebaseGrow; -1 when none
}

// Contribution bits recorded per node in machine.wbState.
const (
	wbReachedBit uint8 = 1 << iota
	wbBackBit
	wbPenalBit
	wbUnreachBit
)

// markNodeDirty records node-level dirt for the batched write-back.
func (m *machine) markNodeDirty(id int32) {
	if m.wbValid { // else the next write-back walks every node
		m.wbDirty = append(m.wbDirty, id)
	}
}

// kin links a label into its parent's child list. Fields hold label
// index + 1, so the zero value is an empty, unlinked entry.
type kin struct {
	first      int32 // first child
	next, prev int32 // siblings
}

// treeParent returns the parent whose child list holds lb: its parent
// when lb has a path (mapped or queued) below the root, else -1.
func treeParent(lb *label) int32 {
	if !lb.hasPath() {
		return -1
	}
	return lb.parent
}

// linkChild adds label c at the head of parent p's child list.
func (m *machine) linkChild(c, p int32) {
	k := m.kin
	head := k[p].first
	k[c].next, k[c].prev = head, 0
	if head != 0 {
		k[head-1].prev = c + 1
	}
	k[p].first = c + 1
}

// unlinkChild removes label c from parent p's child list.
func (m *machine) unlinkChild(c, p int32) {
	k := m.kin
	next, prev := k[c].next, k[c].prev
	if prev != 0 {
		k[prev-1].next = next
	} else {
		k[p].first = next
	}
	if next != 0 {
		k[next-1].prev = prev
	}
	k[c].next, k[c].prev = 0, 0
}

// seedInNeighbors re-queues every mapped in-neighbor of node id (except
// the label at index exclude, which the caller is already handling), so
// a label reset to unmapped receives offers from its whole frontier.
func (m *machine) seedInNeighbors(id int32, exclude int32) {
	seed := func(u int32) {
		lb := &m.labels[m.slot(u)]
		if !lb.used || lb.state != graph.Mapped || m.index(lb) == exclude {
			return
		}
		lb.state = graph.Queued
		m.push(lb)
	}
	for i := m.revRow[id]; i < m.revRow[id+1]; i++ {
		seed(m.revFrom[i])
	}
	for _, u := range m.revExtra[id] {
		seed(u)
	}
}

// invalidateTree resets the label li and every label deriving its value
// from it (its subtree in the child lists) to unmapped, pulls queued
// ones out of the queue, and re-queues each reset node's in-neighbors.
// It reports how many labels were reset and whether the run's root was
// among them.
func (m *machine) invalidateTree(li int32, exclude int32) (count int, hitRoot bool) {
	if !m.labels[li].used {
		return 0, false
	}
	stack := append(m.invStack[:0], li)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lb := &m.labels[cur]
		if !lb.used || lb.state == graph.Unmapped {
			continue
		}
		for c := m.kin[cur].first; c != 0; c = m.kin[c-1].next {
			stack = append(stack, c-1)
		}
		if lb.parent < 0 {
			hitRoot = true
		} else {
			m.unlinkChild(cur, lb.parent)
		}
		m.markChanged(cur)
		if lb.state == graph.Queued {
			m.queue.Remove(int(lb.qb), int(lb.qi))
		}
		lb.state = graph.Unmapped
		lb.phase = 0
		lb.cost = 0
		lb.hops = 0
		lb.tie = 0
		lb.parent = -1
		m.via[cur] = nil
		lb.viaOp = graph.Op{}
		lb.lastDir = 0
		lb.mixes = 0
		lb.inDomain = false
		count++
		m.seedInNeighbors(lb.id, exclude)
	}
	m.invStack = stack[:0]
	return count, hitRoot
}

// markChanged records a warm-run label mutation, once per label per
// run, saving the label's value from before the run for dropUnchanged.
// Callers mark before they mutate, and a label leaves Unmapped only
// through setLabel, so the saved copy of a label that had no path is
// Unmapped; a saved Queued copy was re-queued for re-relaxation and
// still holds its mapped value.
func (m *machine) markChanged(li int32) {
	if lb := &m.labels[li]; !lb.changed {
		m.changed = append(m.changed, li)
		m.changedOld = append(m.changedOld, saved{*lb, m.via[li]})
		m.changedPh = append(m.changedPh, lb.pathPhase())
		lb.changed = true
	}
}

// dropUnchanged ends the warm run's change tracking: it clears the
// marks and filters the mutated labels down to those whose value
// differs from the one saved when the run began. (A run abandoned
// before it leaves its marks to the FullRun that follows, which zeroes
// every label.)
func (m *machine) dropUnchanged() {
	k := 0
	for i, li := range m.changed {
		m.labels[li].changed = false
		old := &m.changedOld[i]
		if !sameValue(&old.lb, old.via, &m.labels[li], m.via[li]) {
			m.changed[k] = li
			k++
		}
	}
	m.changed = m.changed[:k]
}

// sameValue reports whether two copies of a label with their tree edges
// (saved at its first mutation in a warm run, and final) carry the same
// value: both without a mapped path, or the same path.
func sameValue(a *label, aVia *graph.Link, b *label, bVia *graph.Link) bool {
	if !a.hasPath() || !b.hasPath() {
		return a.hasPath() == b.hasPath()
	}
	return a.cost == b.cost && a.hops == b.hops && a.parent == b.parent &&
		a.viaOp == b.viaOp && a.lastDir == b.lastDir && a.mixes == b.mixes &&
		a.inDomain == b.inDomain && sameLink(aVia, bVia)
}

// sameLink compares tree edges by value, (From, To, Cost, Op, Flags):
// the engine re-applies a changed file's network declarations as fresh
// member edges, and a back link dropped and invented again within a
// warm run (its host lost its path, then got it back) is a fresh
// *graph.Link value, so an unchanged path can arrive over a new
// pointer.
func sameLink(a, b *graph.Link) bool {
	if a == b {
		return true
	}
	return a != nil && b != nil && a.From == b.From && a.To == b.To &&
		a.Cost == b.Cost && a.Op == b.Op && a.Flags == b.Flags
}

// saved is a label's value and tree edge as they were when a warm run
// first changed it (markChanged).
type saved struct {
	lb  label
	via *graph.Link
}

// Run maps the graph from source with the given options: a fresh
// Machine's full run over the graph's snapshot, the procedure every
// engine full run takes. The Result keeps the machine, whose labels are
// the route tree. The graph is left as it was, apart from the snapshot
// it memoizes.
func Run(g *graph.Graph, source *graph.Node, opts Options) (*Result, error) {
	return run(NewMachine(g, opts), source)
}

// run full-runs mc from source over the graph's snapshot and completes
// the Result with the invented links. mc is not run again, so its queue
// goes now; its labels and child lists stay for the Result's readers.
func run(mc *Machine, source *graph.Node) (*Result, error) {
	mc.UseSnapshot(mc.g.Snapshot())
	res, err := mc.FullRun(source)
	if err != nil {
		return nil, err
	}
	mc.mach.queue, mc.mach.scanQueue = nil, nil
	res.Invented, res.inventedFrom = mc.mach.invented, mc.mach.overlay
	return res, nil
}

// labelLess orders the priority queue: cost, then the packed tie key — which
// encodes (hop count, name rank, taint) in one integer — fully
// deterministic for identical inputs, and independent of input file order
// (rank follows name order, not creation order). Ties are common: map
// costs come from a small symbolic vocabulary, so many labels share a
// cost, and one packed compare beats three field compares in the queue's
// hottest loop. It reads only the two labels, so a queue built for one
// machine serves any other (see queuePools).
func labelLess(a, b *label) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.tie < b.tie
}

// tieKey packs (hops, rank, taint) preserving lexicographic order. Both
// hops and rank are non-negative int32 values, so hops<<32 | rank<<1 |
// taint partitions the 64 bits exactly — no graph size can overflow a
// field into its neighbor.
func (m *machine) tieKey(hops int32, id int32, taint int8) uint64 {
	return uint64(uint32(hops))<<32 | uint64(uint32(m.snap.Rank[id]))<<1 | uint64(taint)
}

// labelFor returns the label slot for node id in the given domain state.
// Outside second-best mode all paths share slot 0 and the domain bit is
// carried in the label itself (the committed-tree behavior of the paper's
// production algorithm).
func (m *machine) labelFor(id int32, inDomain bool) *label {
	idx := m.slot(id)
	taint := int8(0)
	if m.opts.SecondBest && inDomain {
		idx++
		taint = 1
	}
	lb := &m.labels[idx]
	if !lb.used {
		lb.used = true
		lb.id = id
		lb.taint = taint
		lb.parent = -1
	}
	return lb
}

// drain runs the main extraction loop.
func (m *machine) drain() {
	for m.queueLen() > 0 {
		lb := m.popMin()
		lb.state = graph.Mapped
		m.res.Extractions++
		m.relaxFrom(lb)
	}
}

// relaxFrom relaxes every out-edge of lb's node from lb's state, streaming
// through the CSR arrays (plus any invented back links).
func (m *machine) relaxFrom(lb *label) {
	s := m.snap
	u := lb.id
	for e := s.Row[u]; e < s.Row[u+1]; e++ {
		m.relax(lb, s.To[e], s.EdgeCost[e], s.EdgeFlags[e], s.EdgeOp[e], s.EdgeLink[e])
	}
	if len(m.overlay) > 0 {
		for _, l := range m.overlay[u] {
			m.relax(lb, int32(l.To.ID), l.Cost, l.Flags, l.Op, l)
		}
	}
}

// relax attempts to improve the path to node v by extending lb along the
// edge described by (eCost, eFlags, eOp, el). Unusable edges were filtered
// out when the snapshot was built.
func (m *machine) relax(lb *label, v int32, eCost cost.Cost, eFlags graph.LinkFlags,
	eOp graph.Op, el *graph.Link) {
	m.res.Relaxations++
	s := m.snap
	vFlags := s.NodeFlags[v]

	// Effective operator: "When traversing a network-to-member edge, the
	// routing character and direction are the ones encountered when
	// entering the network."
	effOp := eOp
	if eFlags&graph.LNetMember != 0 {
		effOp = lb.viaOp
	}

	// Penalties. Each is computed from the extending label's state; this
	// is where the weighted-graph model gets sullied.
	edgeCost := eCost
	if eFlags&graph.LDead != 0 || vFlags&graph.FDead != 0 {
		edgeCost = edgeCost.Add(m.opts.DeadPenalty)
	}
	if lb.parent >= 0 && s.Adjust[lb.id] != 0 {
		// Per-host adjustment applies when relaying through the host,
		// not when originating at it.
		edgeCost = edgeCost.Add(s.Adjust[lb.id])
	}
	if vFlags&graph.FGatewayed != 0 && eFlags&graph.LNetMember == 0 &&
		eFlags&graph.LAlias == 0 && !s.IsGateway(v, lb.id) {
		edgeCost = edgeCost.Add(m.opts.GatewayPenalty)
	}
	syntaxBearing := eFlags&(graph.LAlias|graph.LNetEntry) == 0
	realHop := eFlags&(graph.LAlias|graph.LNetMember) == 0
	if lb.inDomain && realHop {
		edgeCost = edgeCost.Add(m.opts.DomainRelayPenalty)
	}

	newDir := lb.lastDir
	newMixes := lb.mixes
	if syntaxBearing {
		d := uint8(1)
		if effOp.Dir == graph.DirRight {
			d = 2
		}
		if lb.lastDir == 2 && d == 1 {
			// RIGHT followed by LEFT: the ambiguous alternation.
			edgeCost = edgeCost.Add(m.opts.MixedPenalty)
			if newMixes < 255 {
				newMixes++
			}
		}
		newDir = d
	}

	cand := lb.cost.Add(edgeCost)
	newInDomain := lb.inDomain || vFlags&graph.FDomain != 0
	target := m.labelFor(v, newInDomain)
	ph := lb.phase
	if eFlags&graph.LBack != 0 {
		ph++
	}

	if m.warm && target.parent == m.index(lb) && m.via[m.index(target)] == el {
		// Re-derivation of the committed tree edge: target's value was
		// computed from lb's state at some earlier point of the warm run;
		// if lb has changed since, target must track it exactly — the
		// strict-improvement rule below would wrongly keep a stale value
		// when the parent's path got worse (or changed syntax state).
		// Never fires in a full run: a label relaxes its edges once,
		// and its children's values already match that single offer.
		if ph == target.phase && cand == target.cost && lb.hops+1 == target.hops &&
			target.viaOp == effOp && newDir == target.lastDir &&
			newMixes == target.mixes && newInDomain == target.inDomain {
			return // consistent
		}
		worse := ph > target.phase || ph == target.phase &&
			(cand > target.cost || cand == target.cost && lb.hops+1 > target.hops)
		st := target.state
		m.setLabel(target, lb, el, effOp, ph, cand, newDir, newMixes, newInDomain)
		switch st {
		case graph.Mapped:
			target.state = graph.Queued
			m.push(target)
		case graph.Queued:
			m.fix(target)
		}
		if worse {
			// The labels below target took their values from its old,
			// better one. Left standing, one of them could be extracted
			// before target and offer that stale value back up its own
			// path — a parent cycle that re-derives itself forever over
			// zero-cost alias edges. Reset them; their in-neighbors
			// offer again.
			ti := m.index(target)
			for c := m.kin[ti].first; c != 0; c = m.kin[ti].first {
				m.invalidateTree(c-1, -1)
			}
			// Offers previously beaten by the old, better value may win
			// now: re-queue every other in-neighbor.
			m.seedInNeighbors(target.id, m.index(lb))
		}
		return
	}

	switch target.state {
	case graph.Unmapped:
		// setLabel first: markChanged must save the label as Unmapped.
		m.setLabel(target, lb, el, effOp, ph, cand, newDir, newMixes, newInDomain)
		target.state = graph.Queued
		m.push(target)
	case graph.Queued:
		if m.better(lb, ph, cand, target) {
			m.setLabel(target, lb, el, effOp, ph, cand, newDir, newMixes, newInDomain)
			m.fix(target)
		}
	case graph.Mapped:
		// Re-opening: a mapped label accepts a strictly better offer and
		// goes back on the queue. A full run never needs it: each drain
		// sees offers of one phase only, extraction order is monotone in
		// (cost, tie) within it, and an offer into an earlier phase
		// loses on the phase (see better). In a warm run an
		// improvement entering through a changed edge must propagate
		// through labels that were mapped in a previous run.
		if m.warm && m.better(lb, ph, cand, target) {
			target.state = graph.Queued
			m.setLabel(target, lb, el, effOp, ph, cand, newDir, newMixes, newInDomain)
			m.push(target)
		}
	}
}

// better reports whether extending lb into phase ph would improve
// target, under the full deterministic order: phase, path cost, hop
// count, then — on a full tie — the extraction order of the offering
// parent, (parent cost, parent tie).
//
// The phase comes first. A path's phase counts the invented back links
// on it, which is the back-link round in which a full run maps it: the
// paper's production algorithm never revisits a label once mapped, so
// a path through a back link never beats one found in an earlier round,
// however cheap. Ordering by phase first makes that a property of the
// order rather than a rule of the pass, and keeps the order strictly
// increasing along every edge (a step never lowers the phase, and adds
// a hop), so the final labeling is the unique fixpoint of the
// relaxation relation, independent of the order relaxations run in,
// back links included. In a full run the phase and parent-order keys
// change nothing (a drain only sees offers of its own phase, in parent
// extraction order, so the first best offer already has the minimal
// key); for warm runs they are what let a partial re-relaxation land on
// byte-identical routes.
func (m *machine) better(lb *label, ph int32, cand cost.Cost, target *label) bool {
	if ph != target.phase {
		return ph < target.phase
	}
	if cand != target.cost {
		return cand < target.cost
	}
	if h := lb.hops + 1; h != target.hops {
		return h < target.hops
	}
	if target.parent < 0 {
		return false // the root never takes a parent
	}
	p := &m.labels[target.parent]
	if lb.cost != p.cost {
		return lb.cost < p.cost
	}
	return lb.tie < p.tie
}

// setLabel fills target's path fields from the extension of lb along l.
func (m *machine) setLabel(target, lb *label, l *graph.Link, effOp graph.Op,
	ph int32, cand cost.Cost, dir, mixes uint8, inDomain bool) {
	li, pi := m.index(target), m.index(lb)
	if m.warm {
		// Track the mutation for the engine's incremental route patching,
		// and move target to its new parent's child list.
		m.markChanged(li)
		if p := treeParent(target); p != pi {
			if p >= 0 {
				m.unlinkChild(li, p)
			}
			m.linkChild(li, pi)
		}
		// Labels deriving their value from target's old state (its tree
		// children) are repaired when target re-relaxes: the committed
		// tree edge takes the re-derivation branch of relax, which
		// tracks the new state exactly. Whenever target's value changes
		// it is (re-)queued, so that re-relaxation always happens.
	}
	target.phase = ph
	target.cost = cand
	target.hops = lb.hops + 1
	target.tie = m.tieKey(target.hops, target.id, target.taint)
	target.parent = pi
	m.via[li] = l
	target.viaOp = effOp
	target.lastDir = dir
	target.mixes = mixes
	target.inDomain = inDomain
}

// nodeMapped reports whether any label of node id is mapped.
func (m *machine) nodeMapped(id int32) bool {
	for li := m.slot(id); li < m.slot(id+1); li++ {
		if m.labels[li].state == graph.Mapped {
			return true
		}
	}
	return false
}

// winner returns the index of node id's minimum-cost mapped label, or
// -1.
func (m *machine) winner(id int32) int32 {
	best := int32(-1)
	for li := m.slot(id); li < m.slot(id+1); li++ {
		lb := &m.labels[li]
		if !lb.used || lb.state != graph.Mapped {
			continue
		}
		if best < 0 || labelLess(lb, &m.labels[best]) {
			best = li
		}
	}
	return best
}

// writeBack fills the Result counters from the winning labels. Warm runs
// with valid persistent contribution state take the batched delta path;
// full runs walk every node and repopulate that state.
func (m *machine) writeBack() {
	if m.warm && m.wbValid {
		m.writeBackDelta()
		return
	}
	m.writeBackFull()
}

// nodeContribution computes node n's result contribution bits from its
// winning label and flags.
func (m *machine) nodeContribution(n *graph.Node) uint8 {
	if n.IsDeleted() {
		return 0
	}
	w := m.winner(int32(n.ID))
	if w < 0 {
		if !n.IsNet() {
			return wbUnreachBit
		}
		return 0
	}
	bits := wbReachedBit
	if via := m.via[w]; via != nil && via.Flags&graph.LBack != 0 {
		bits |= wbBackBit
	}
	if m.labels[w].mixes > 0 && !n.IsNet() {
		bits |= wbPenalBit
	}
	return bits
}

// writeBackFull derives every node's contribution. The walk follows the
// snapshot's rank order, so unreachable hosts come out already sorted by
// name — no per-run sort. (Nodes sharing a name share a rank; their
// relative order is arbitrary but unobservable, since they print as
// identical lines.)
func (m *machine) writeBackFull() {
	n := len(m.snap.Nodes)
	m.wbState = cleared(m.wbState, n)
	m.wbUnreach = m.wbUnreach[:0]
	for _, id := range m.snap.ByRank {
		bits := m.nodeContribution(m.snap.Nodes[id])
		if bits&wbUnreachBit != 0 {
			m.res.Unreachable = append(m.res.Unreachable, m.snap.Nodes[id])
		} else {
			if bits&wbReachedBit != 0 {
				m.res.Reached++
			}
			if bits&wbBackBit != 0 {
				m.res.BackLinked++
			}
			if bits&wbPenalBit != 0 {
				m.res.Penalized++
			}
		}
		m.wbState[id] = bits
		if bits&wbUnreachBit != 0 {
			m.wbUnreach = append(m.wbUnreach, id)
		}
	}
	m.wbReached, m.wbBack, m.wbPenal = m.res.Reached, m.res.BackLinked, m.res.Penalized
	m.wbDirty = m.wbDirty[:0]
	m.wbGrownFrom = -1
	m.wbValid = true
}

// unreachLess orders unreachable node IDs by (name rank, id) — the
// canonical order of the persistent wbUnreach list.
func (m *machine) unreachLess(a, b int32) bool {
	ra, rb := m.snap.Rank[a], m.snap.Rank[b]
	if ra != rb {
		return ra < rb
	}
	return a < b
}

// writeBackDelta patches the persistent contribution state for the
// dirty nodes only: nodes whose labels changed this run, nodes marked
// through MarkNodeDirty (attribute and IsNet flips), and nodes appended
// by RebaseGrow. Counters move by old/new contribution diffs and the
// rank-ordered unreachable list is patched with one sorted merge, so
// the cost is O(dirty + unreachable), not O(V).
func (m *machine) writeBackDelta() {
	for _, li := range m.changed {
		m.markNodeDirty(m.labels[li].id)
	}
	if m.wbGrownFrom >= 0 {
		for id := m.wbGrownFrom; id < int32(len(m.snap.Nodes)); id++ {
			m.markNodeDirty(id)
		}
	}
	slices.SortFunc(m.wbDirty, func(a, b int32) int {
		if m.unreachLess(a, b) {
			return -1
		}
		if a == b {
			return 0
		}
		return 1
	})
	dirty := slices.Compact(m.wbDirty)

	btoi := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	touchUnreach := false
	for _, id := range dirty {
		old := m.wbState[id]
		bits := m.nodeContribution(m.snap.Nodes[id])
		if old == bits {
			continue
		}
		m.wbState[id] = bits
		m.wbReached += btoi(bits&wbReachedBit != 0) - btoi(old&wbReachedBit != 0)
		m.wbBack += btoi(bits&wbBackBit != 0) - btoi(old&wbBackBit != 0)
		m.wbPenal += btoi(bits&wbPenalBit != 0) - btoi(old&wbPenalBit != 0)
		if (old|bits)&wbUnreachBit != 0 {
			touchUnreach = true
		}
	}
	if touchUnreach {
		// One pass: drop every dirty id from the old list (its bit was
		// recomputed above) and merge back the ones still unreachable.
		merged := m.wbUnreachSp[:0]
		j := 0
		appendDirty := func(limit int32, bounded bool) {
			for j < len(dirty) && (!bounded || m.unreachLess(dirty[j], limit)) {
				if m.wbState[dirty[j]]&wbUnreachBit != 0 {
					merged = append(merged, dirty[j])
				}
				j++
			}
		}
		for _, id := range m.wbUnreach {
			appendDirty(id, true)
			if j < len(dirty) && dirty[j] == id {
				continue // dirty: re-merged from the recomputed side
			}
			merged = append(merged, id)
		}
		appendDirty(0, false)
		m.wbUnreachSp = m.wbUnreach
		m.wbUnreach = merged
	}

	m.res.Reached = m.wbReached
	m.res.BackLinked = m.wbBack
	m.res.Penalized = m.wbPenal
	if len(m.wbUnreach) > 0 {
		m.res.Unreachable = make([]*graph.Node, 0, len(m.wbUnreach))
		for _, id := range m.wbUnreach {
			m.res.Unreachable = append(m.res.Unreachable, m.snap.Nodes[id])
		}
	}
	m.wbDirty = m.wbDirty[:0]
	m.wbGrownFrom = -1
}
