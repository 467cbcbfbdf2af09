package mapper

// Machine is a persistent mapping engine: the same label array, queue
// geometry, and shortest-path tree survive across runs, so the
// incremental re-map engine (internal/remap) can warm-start a run after
// a small graph change instead of recomputing the world.
//
// The protocol for a warm run is driven by the engine, which knows what
// changed:
//
//	snap := g.SnapshotPatched(old, touched)   // or g.Snapshot()
//	mc.UseSnapshot(snap)
//	mc.BeginWarm()
//	mc.InvalidateSubtree(v)                   // per worsened/removed path
//	mc.LinkChanged(u, v)                      // per added/changed/removed link
//	mc.Seed(u)                                // per possible improvement source
//	mc.MarkNodeDirty(v)                       // per node-level change
//	res, changed := mc.FinishWarm()
//
// InvalidateSubtree resets every label in the current tree below a node
// (inclusive) to unmapped and re-queues each reset node's mapped
// in-neighbors, found through the snapshot's reverse adjacency
// (graph.Snapshot.Reverse: built at most once per snapshot, on the
// first warm run over it, and shared read-only by every machine); Seed
// re-queues an untouched mapped label so its out-edges are re-relaxed.
// LinkChanged and MarkNodeDirty name what the back-link check must look
// at beside the labels that move. FinishWarm drains the queue under the
// confluent acceptance rule (see machine.better), brings the back links
// up to date, and publishes results. Because the acceptance order is a
// total order — (phase, cost, hops, parent extraction key) — the final
// labeling is the unique relaxation fixpoint, so a warm run that
// invalidates enough (every label whose final value differs must be
// invalidated or improvable) lands on exactly the labels a full run
// would compute.
//
// A warm run's cost follows what changed, not the size of the graph.
// The previous run's back links stay, with their overlay index and
// reverse entries: the phase order makes a link's validity a local
// property (warmBackLinks), so only the links at reported pairs and
// nodes, and at nodes whose phase moved, are checked, dropped or
// invented. FinishWarm reports a label as changed only
// if its value differs from the one it had when the run began, with
// tree edges compared by (From, To, Cost, Op, Flags), not by pointer:
// a re-applied network declaration re-creates its member edges, which
// leaves those paths as they were. The tree's
// child lists are kept exact through the run, one O(1) relink per
// parent change, instead of being rebuilt from every label at its end.
// That also lets a label whose value got worse by re-derivation reset
// the subtree below it at once: left standing, a stale descendant could
// hand the old, better value back up its own path and close a parent
// cycle.
//
// Warm runs do not support SecondBest (two labels per node) — the engine
// falls back to FullRun for that mode. The graph's node set may GROW
// between runs (node IDs only append, so every existing label keeps its
// slot): the engine calls RebaseGrow first, which rewrites the name
// ranks the cached tie keys bake in and appends fresh label slots for
// the new nodes. Only node removal (a user delete{} flip) still forces
// a full run.

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"sync"

	"pathalias/internal/cost"
	"pathalias/internal/graph"
	"pathalias/internal/pqueue"
)

// Machine wraps a mapping run's state into a reusable object; Run is a
// fresh Machine's FullRun. It treats the graph and its snapshot as
// read-only shared state, so any number of machines — one per vantage
// point — can map the same graph, concurrently if the caller guarantees
// no graph mutation while runs are in flight: a Machine never writes the
// graph and invents back links into a private overlay. Not safe for
// concurrent use.
type Machine struct {
	mach     machine
	g        *graph.Graph
	sourceID int32
	ran      bool

	// extSnap is the snapshot the machine runs over, supplied by the
	// engine through UseSnapshot (the machine never builds or memoizes
	// snapshots itself — the graph is shared).
	extSnap *graph.Snapshot
}

// LabelView is the read-only projection of one label that the engine
// consumes for route patching.
type LabelView struct {
	Node     *graph.Node
	State    graph.MapState
	Cost     cost.Cost
	Hops     int32
	Phase    int32 // back links on the path: the back-link round that maps it
	Parent   int32 // label index of the parent, -1 at the root
	Via      *graph.Link
	ViaOp    graph.Op
	LastDir  uint8
	Mixes    uint8
	InDomain bool
}

// NewMachine returns a machine over g. The label array is sized on the
// first run; the caller must supply the current snapshot through
// UseSnapshot before every run.
func NewMachine(g *graph.Graph, opts Options) *Machine {
	stride := int32(1)
	if opts.SecondBest {
		stride = 2
	}
	return &Machine{g: g, mach: machine{g: g, opts: opts, stride: stride, wbGrownFrom: -1}, sourceID: -1}
}

// UseSnapshot hands the machine the graph's current CSR snapshot. It
// must be called before FullRun or BeginWarm, every time the graph may
// have changed since the previous run.
func (mc *Machine) UseSnapshot(s *graph.Snapshot) { mc.extSnap = s }

// UseEdits gives the machine a what-if overlay of link edits
// (internal/whatif). The caller is responsible for running the machine
// against a snapshot patched with the same overlay (UseSnapshot of
// ov.PatchSnapshot); UseEdits only makes the back-link check for an
// existing link nb→n — a graph lookup, not a snapshot one — see the
// overlay's added links too. Pass nil to clear.
func (mc *Machine) UseEdits(ov *graph.Overlay) { mc.mach.edits = ov }

// snapshot returns the snapshot supplied through UseSnapshot.
func (mc *Machine) snapshot() *graph.Snapshot {
	if mc.extSnap == nil {
		panic("mapper: machine run without UseSnapshot")
	}
	return mc.extSnap
}

// Options returns the options the machine runs with.
func (mc *Machine) Options() Options { return mc.mach.opts }

// queuePools recycles drained bucket queues between machines, one pool
// per geometry, indexed by shift-bucketShift (bucketGeometry only halves
// the bucket count, down to minBuckets, raising the shift to match). A
// machine that gives up its run state (ReleaseRunState: a what-if run,
// on a clone or a fresh machine) returns its queue here, and the next
// machine without one of the same geometry takes it instead of
// allocating hundreds of kilobytes of bucket headers.
var queuePools [geometries]sync.Pool

// newQueue builds (or recycles) a bucket queue sized for the current
// graph. The queue drains completely every run, so between runs only
// the monotone cursor needs rewinding. The array baseline (RunArray)
// scans a plain slice instead.
func (mc *Machine) newQueue() {
	m := &mc.mach
	if m.useArray {
		m.scanQueue = m.scanQueue[:0]
		return
	}
	buckets, shift := bucketGeometry(mc.g.Len())
	// An abandoned warm run (root hit, delta too large) can leave seeded
	// labels behind; recycling is only for cleanly drained queues.
	if m.queue != nil && m.queue.Len() == 0 && m.queueGeom == [2]int{buckets, int(shift)} {
		m.queue.Reset()
		return
	}
	m.queueGeom = [2]int{buckets, int(shift)}
	if q, ok := queuePools[shift-bucketShift].Get().(*pqueue.BucketQueue[*label]); ok {
		q.Reset()
		m.queue = q
		return
	}
	m.queue = pqueue.NewBucketQueue[*label](buckets, shift,
		labelLess,
		func(lb *label) int64 { return int64(lb.cost) },
		func(lb *label, b, i int) { lb.qb, lb.qi = int16(b), int32(i) })
}

// FullRun recomputes the complete shortest-path tree from source,
// resetting all persistent state. The tree is the machine's labels,
// read through Label, Winner and AppendChildren; unlike Run's, the
// Result carries no Invented list.
func (mc *Machine) FullRun(source *graph.Node) (*Result, error) {
	if source == nil {
		return nil, fmt.Errorf("mapper: nil source")
	}
	if source.IsDeleted() {
		return nil, fmt.Errorf("mapper: source %q is deleted", source.Name)
	}
	m := &mc.mach
	m.warm = false // a warm run abandoned mid-invalidation lands here
	// A fresh run starts from declared links only.
	m.overlay = make(map[int32][]*graph.Link)
	m.overlayIdx = make(map[uint64]*graph.Link)
	m.revExtra = make(map[int32][]int32)
	m.invented = m.invented[:0]
	m.snap = mc.snapshot()

	want := int(m.stride) * mc.g.Len()
	m.labels = cleared(m.labels, want)
	m.via = cleared(m.via, want)
	m.res = &Result{Source: source, Machine: mc}
	mc.newQueue()
	mc.sourceID = int32(source.ID)

	src := m.labelFor(int32(source.ID), false)
	src.state = graph.Queued
	src.tie = m.tieKey(0, src.id, src.taint)
	m.push(src)
	m.drain()
	if m.opts.BackLinks {
		m.backLinkPass()
	}
	m.writeBack()
	mc.rebuildChildren()
	mc.ran = true
	return m.res, nil
}

// RebaseGrow extends the machine's persistent state over a graph that
// gained nodes since the last run (and lost none). New nodes append to
// the node table, so every existing label keeps its slot and the
// committed shortest-path tree stays intact; what shifts is the name
// rank baked into each cached tie key, because ranks follow sorted name
// order and a new name re-ranks every name after it. RebaseGrow
// rewrites the live tie keys against the new snapshot's ranks and
// appends zeroed label slots for the new nodes, which then behave as
// ordinary never-reached labels (initialized lazily on their first
// offer). Call after UseSnapshot and before BeginWarm; on error the
// caller must fall back to FullRun.
func (mc *Machine) RebaseGrow() error {
	m := &mc.mach
	if !mc.ran {
		return fmt.Errorf("mapper: RebaseGrow before a full run")
	}
	if m.opts.SecondBest {
		return fmt.Errorf("mapper: warm runs do not support SecondBest")
	}
	want := int(m.stride) * mc.g.Len()
	old := len(m.labels)
	if old > want {
		return fmt.Errorf("mapper: node set shrank (%d labels, %d nodes); full run required",
			old, mc.g.Len())
	}
	snap := mc.snapshot()
	if len(snap.Rank) != mc.g.Len() {
		return fmt.Errorf("mapper: snapshot covers %d nodes, graph has %d; full run required",
			len(snap.Rank), mc.g.Len())
	}
	// Rewrite the surviving tie keys. The queue drains completely every
	// run, so between runs every label is Mapped (valid tie) or Unmapped
	// (tie unread until setLabel rewrites it) — only the mapped ones
	// need re-packing.
	for i := range m.labels {
		lb := &m.labels[i]
		if !lb.used || lb.state != graph.Mapped {
			continue
		}
		lb.tie = uint64(uint32(lb.hops))<<32 |
			uint64(uint32(snap.Rank[lb.id]))<<1 | uint64(lb.taint)
	}
	if old < want {
		m.labels = growClear(m.labels, want)
		m.via = growClear(m.via, want)
		m.kin = growClear(m.kin, want)
		if m.wbValid {
			m.wbState = growClear(m.wbState, mc.g.Len())
			if m.wbGrownFrom < 0 {
				m.wbGrownFrom = int32(old) / m.stride
			}
		}
	}
	return nil
}

// growClear extends s to length want, zeroing the extension (the spare
// capacity may hold stale state from an earlier, shorter slicing). A
// reallocation takes 25% headroom so a run of single-node adds — the
// steady state of a watched map — amortizes to O(1) copies per add
// instead of copying every array on every generation.
func growClear[T any](s []T, want int) []T {
	old := len(s)
	if cap(s) >= want {
		s = s[:want]
		clear(s[old:])
		return s
	}
	ns := make([]T, want, want+want/4)
	copy(ns, s)
	return ns
}

// cleared returns s resized to n zeroed elements, reusing its array
// when it is large enough.
func cleared[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// MarkNodeDirty tells the next FinishWarm's batched write-back to
// reconsider node id even if none of its labels change: node-level
// effects — an IsNet flip, a changed attribute — alter a node's
// result contribution (unreachable membership, penalty counting)
// without touching its labels. A deleted or restored node also changes
// which back links it can take part in, so its links are checked
// against their templates now and again after the drain. Call between
// BeginWarm and FinishWarm.
func (mc *Machine) MarkNodeDirty(id int32) {
	m := &mc.mach
	m.markNodeDirty(id)
	for _, nb := range slices.Clone(m.revExtra[id]) {
		m.dropStale(nb, id)
	}
	for _, l := range slices.Clone(m.overlay[id]) {
		m.dropStale(id, int32(l.To.ID))
	}
	m.evNodes = append(m.evNodes, id)
}

// LinkChanged tells the warm run that a link between from and to was
// added, removed or changed: a back link on either pair that lost its
// template, or that a new link blocks, is dropped now and its riders
// reset, and the pair is checked again after the drain. It returns how
// many labels were reset. Call between BeginWarm and FinishWarm.
func (mc *Machine) LinkChanged(from, to int32) (count int) {
	m := &mc.mach
	m.evPairs = append(m.evPairs, [2]int32{from, to})
	return m.dropStale(from, to)
}

// BeginWarm starts a warm run over the graph's current snapshot (which
// the engine has already built or patched). It must follow a successful
// FullRun or warm run, with the node set unchanged since (after a
// RebaseGrow for generations that added nodes). The caller then applies
// InvalidateSubtree and Seed before FinishWarm.
func (mc *Machine) BeginWarm() error {
	m := &mc.mach
	if !mc.ran {
		return fmt.Errorf("mapper: BeginWarm before a full run")
	}
	if m.opts.SecondBest {
		return fmt.Errorf("mapper: warm runs do not support SecondBest")
	}
	if len(m.labels) != int(m.stride)*mc.g.Len() {
		return fmt.Errorf("mapper: node set changed (%d labels, %d nodes); full run required",
			len(m.labels), mc.g.Len())
	}
	m.snap = mc.snapshot()
	m.warm = true
	m.changed = m.changed[:0]
	m.changedOld = m.changedOld[:0]
	m.changedPh = m.changedPh[:0]
	m.evPairs = m.evPairs[:0]
	m.evNodes = m.evNodes[:0]
	m.res = &Result{Source: m.snap.Nodes[mc.sourceID], Machine: mc}
	mc.newQueue()
	m.revRow, m.revFrom = m.snap.Reverse()
	return nil
}

// InvalidateSubtree resets the label of node id and every label below it
// in the current shortest-path tree to unmapped, recording them as
// changed and re-queuing each reset node's mapped in-neighbors (the cost
// frontier the re-relaxation restarts from). It returns how many labels
// it reset and whether the run's source was among them (in which case
// the caller must abandon the warm run and FullRun instead).
func (mc *Machine) InvalidateSubtree(id int32) (count int, hitRoot bool) {
	return mc.mach.invalidateTree(mc.mach.slot(id), -1)
}

// Seed re-queues the mapped label of node id so its out-edges are
// re-relaxed during FinishWarm — the boundary of the dirty region, and
// the sources of possible improvements. Unmapped, already-queued, and
// invalidated labels are skipped.
func (mc *Machine) Seed(id int32) {
	m := &mc.mach
	lb := &m.labels[m.slot(id)]
	if !lb.used || lb.state != graph.Mapped {
		return
	}
	lb.state = graph.Queued
	m.push(lb)
}

// FinishWarm drains the warm queue, brings the back links up to date
// (warmBackLinks), and publishes results. It returns the run Result
// (Tree is nil) and the indices of every label whose value changed —
// compared with its value when the run began, so a label invalidated
// and re-derived to the same path is not reported — for the engine's
// incremental route patching.
// The returned slice is reused by the next warm run.
func (mc *Machine) FinishWarm() (*Result, []int32) {
	m := &mc.mach
	m.drain()
	if m.opts.BackLinks {
		m.warmBackLinks()
	}
	m.dropUnchanged()
	m.writeBack()
	m.warm = false
	return m.res, m.changed
}

// BackLinks yields the back links the machine holds — the edges its
// relax loop reads beside the snapshot's — in no particular order.
func (mc *Machine) BackLinks() iter.Seq[*graph.Link] {
	return func(yield func(*graph.Link) bool) {
		for _, sp := range mc.mach.overlay {
			for _, l := range sp {
				if !yield(l) {
					return
				}
			}
		}
	}
}

// NumLabels returns the size of the label array: one label per node,
// two under SecondBest.
func (mc *Machine) NumLabels() int { return len(mc.mach.labels) }

// NodeLabel returns the index of node id's first label: its only one,
// or under SecondBest its clean one. Node id's labels are the indices
// from NodeLabel(id) up to NodeLabel(id+1), so a machine over n nodes
// holds NodeLabel(n) labels.
func (mc *Machine) NodeLabel(id int32) int32 { return mc.mach.slot(id) }

// SourceID returns the node ID of the last run's source, -1 before any.
func (mc *Machine) SourceID() int32 { return mc.sourceID }

// Label returns the view of label li. Node is nil while the slot holds
// no label yet.
func (mc *Machine) Label(li int32) LabelView {
	m := &mc.mach
	lb := &m.labels[li]
	var n *graph.Node
	if lb.used {
		n = m.snap.Nodes[lb.id]
	}
	return LabelView{
		Node:     n,
		State:    lb.state,
		Cost:     lb.cost,
		Hops:     lb.hops,
		Phase:    lb.phase,
		Parent:   lb.parent,
		Via:      m.via[li],
		ViaOp:    lb.viaOp,
		LastDir:  lb.lastDir,
		Mixes:    lb.mixes,
		InDomain: lb.inDomain,
	}
}

// Winner returns the index of n's winning label — its minimum-cost
// mapped label, the one whose cost is reported for n — or -1 when n is
// not mapped. Outside SecondBest a node has one label, NodeLabel(n.ID).
func (mc *Machine) Winner(n *graph.Node) int32 {
	if n == nil || n.ID*int(mc.mach.stride) >= len(mc.mach.labels) {
		return -1
	}
	return mc.mach.winner(int32(n.ID))
}

// Root returns the label of the last run's source, the root of its
// shortest-path tree, or -1 when the machine holds no tree.
func (mc *Machine) Root() int32 {
	if mc.sourceID < 0 {
		return -1
	}
	li := mc.mach.slot(mc.sourceID)
	if lb := &mc.mach.labels[li]; !lb.used || lb.state != graph.Mapped {
		return -1
	}
	return li
}

// Rank returns the name ranks of the snapshot the machine runs over
// (graph.Snapshot.Rank, shared read-only): node ID to the node name's
// position in sorted name order.
func (mc *Machine) Rank() []int32 { return mc.snapshot().Rank }

// AppendChildren appends the label indices of li's children in the
// current shortest-path tree to dst and returns the extended slice.
func (mc *Machine) AppendChildren(dst []int32, li int32) []int32 {
	k := mc.mach.kin
	for c := k[li].first; c != 0; c = k[c-1].next {
		dst = append(dst, c-1)
	}
	return dst
}

// Clone returns a copy of the machine that can run on from the same
// labeling — warm, under its own snapshot and edits — while the
// original is read or run: labels, tree edges, child lists, the back
// links with their indexes and the batched write-back state are copied,
// so the two share no slice or map that either side writes. Outside
// SecondBest that is one pointer-free label per node, copied without
// write barriers, plus one tree-edge pointer per node. Per-run scratch (queue, changed lists, the back-link check's
// lists) is left for the copy's next run to allocate. Only immutable
// data is shared: the graph, the snapshot pointers and the *graph.Link
// values labels ride.
func (mc *Machine) Clone() *Machine {
	src := &mc.mach
	c := &Machine{g: mc.g, sourceID: mc.sourceID, ran: mc.ran, extSnap: mc.extSnap}
	c.mach = machine{
		g:           src.g,
		snap:        src.snap,
		opts:        src.opts,
		stride:      src.stride,
		labels:      slices.Clone(src.labels),
		via:         slices.Clone(src.via),
		overlay:     cloneLists(src.overlay),
		overlayIdx:  maps.Clone(src.overlayIdx),
		revExtra:    cloneLists(src.revExtra),
		edits:       src.edits,
		kin:         slices.Clone(src.kin),
		wbValid:     src.wbValid,
		wbState:     slices.Clone(src.wbState),
		wbUnreach:   slices.Clone(src.wbUnreach),
		wbReached:   src.wbReached,
		wbBack:      src.wbBack,
		wbPenal:     src.wbPenal,
		wbGrownFrom: src.wbGrownFrom,
	}
	return c
}

// cloneLists copies a map of slices into one backing array. Each copied
// slice is capped at its length, so an append moves it out rather than
// into its neighbor's elements.
func cloneLists[T any](src map[int32][]T) map[int32][]T {
	n := 0
	for _, sp := range src {
		n += len(sp)
	}
	back := make([]T, 0, n)
	dst := make(map[int32][]T, len(src))
	for id, sp := range src {
		i := len(back)
		back = append(back, sp...)
		dst[id] = back[i:len(back):len(back)]
	}
	return dst
}

// ReleaseRunState frees everything but the labels, their tree edges and
// the back links of a machine whose callers now read only those, such
// as a cached what-if run once its routes are derived: child lists,
// queue, warm-run lists and indexes, and the write-back bookkeeping.
// AppendChildren and warm runs are unavailable until the next FullRun.
func (mc *Machine) ReleaseRunState() {
	m := &mc.mach
	m.kin = nil
	if m.queue != nil && m.queue.Len() == 0 {
		queuePools[m.queueGeom[1]-bucketShift].Put(m.queue)
	}
	m.queue = nil
	m.changed, m.changedOld = nil, nil
	m.changedPh, m.revExtra, m.invStack = nil, nil, nil
	m.evPairs, m.evNodes, m.drops, m.adds = nil, nil, nil, nil
	m.wbValid = false
	m.wbState, m.wbUnreach, m.wbUnreachSp, m.wbDirty = nil, nil, nil, nil
	mc.ran = false
}

// rebuildChildren derives the child lists from the label parents, one
// pass over the label array. Walking it backwards and linking at the
// head leaves every list in ascending label order.
func (mc *Machine) rebuildChildren() {
	m := &mc.mach
	nl := len(m.labels)
	m.kin = cleared(m.kin, nl)
	for i := nl - 1; i >= 0; i-- {
		if p := treeParent(&m.labels[i]); p >= 0 {
			m.linkChild(int32(i), p)
		}
	}
}
