// Package remap is the incremental re-map engine: it owns the
// parse→graph→map→print pipeline as persistent state, so that when a
// few map files change, only the changed work is redone.
//
// pathalias was built as a batch compiler — the paper's deployments
// re-mapped weekly because every run re-parsed and re-mapped the world.
// The engine turns the pipeline into a live service:
//
//   - per-input parsed fragments are cached by content hash, so an
//     Update re-scans only inputs whose bytes changed (delta parsing);
//   - the connectivity graph persists and is patched in place through
//     per-file journals (apply.go) instead of being rebuilt — an edited
//     file replays and undoes only the statements between the common
//     prefix and suffix of its old and new fragments;
//   - the CSR snapshot is rebuilt by block-copying the rows of untouched
//     nodes (graph.SnapshotPatched);
//   - the mapper warm-starts (mapper.Machine): labels of nodes whose
//     cost frontier is untouched survive, only the dirty region is
//     re-relaxed, and the whole run falls back to a full re-map when the
//     delta is too large, touches the root, or changes the node set;
//   - route format strings are patched per changed subtree (routes.go)
//     rather than re-derived for every host.
//
// The shared half of that state — fragment cache, journaled graph, CSR
// snapshot, per-update change history — is the core, one copy
// regardless of how many vantage points are being mapped. The
// per-source half — a detached mapper.Machine, route frames, the latest
// Result — lives in a vantage (vantage.go). Multi (multi.go) is the
// engine: any number of vantages over one core. A single-source engine
// is a Multi with Options.LocalHost set, read through
// ResultFor(LocalHost).
//
// The engine's contract is byte-identical output: after any sequence of
// Updates, each vantage's Result equals what a from-scratch run with
// that LocalHost over the same inputs would produce (entries, warnings,
// unreachable list). The equivalence rests on PR 2's determinism work —
// priority ties, output order, and tree shape all keyed by name rank,
// never by node creation order — plus the mapper's confluent acceptance
// rule (mapper.better), which makes the final labeling a unique fixpoint
// independent of relaxation order.
package remap

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"pathalias/internal/graph"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
)

// Options configure an engine.
type Options struct {
	// LocalHost names the default vantage: created eagerly, recomputed
	// on every Update, never evicted. Optional; other vantages are named
	// per query.
	LocalHost string
	// Mapper options; nil means mapper.DefaultOptions().
	Mapper *mapper.Options
	// Printer options (cost column, sort order, domains-only, first-hop).
	Printer printer.Options
	// Avoid lists hosts to penalize, as in core.Config.
	Avoid []string
	// FoldCase folds host names to lower case (-i).
	FoldCase bool
	// Workers caps concurrent fragment scanning; 0 = one per CPU.
	Workers int
	// MaxDirtyFrac is the warm-run abandon threshold: when more than
	// this fraction of labels is invalidated, a full re-map is cheaper
	// than patching. 0 means 0.25.
	MaxDirtyFrac float64
	// MaxVantages caps how many vantage machines a Multi keeps resident
	// (least-recently-used eviction; the LocalHost vantage is never
	// evicted). 0 means 64.
	MaxVantages int
}

// Input is one named map source. The engine's cached fragments keep
// substrings of Src until the content is superseded, so Src must be an
// ordinary immutable string (core.ReadInputs reads files into the heap
// for exactly this reason). A watcher that re-reads the files on every
// possible change (routed -map, pathalias -watch) can read torn content
// while an in-place save is half written; the next read converges.
type Input = parser.Input

// Result is one update's complete output for one vantage.
type Result struct {
	// Entries are the routes, ordered exactly as printer.Routes would
	// order them under the engine's printer options. The backing array
	// is recycled: it stays valid until the second recompute of the same
	// vantage after this Result was returned; callers that keep entries
	// longer must copy them.
	Entries []printer.Entry
	// Warnings in parse order, then pending-link and avoid warnings, as
	// a fresh run would emit them. Warnings are vantage-independent; all
	// vantages of one update share the slice.
	Warnings []string
	// Unreachable hosts by name, sorted.
	Unreachable []string
	// Reached counts labeled nodes.
	Reached int
	// BackLinked counts hosts reached only via invented links, and
	// Penalized hosts whose winning path paid a mixed-syntax penalty.
	BackLinked int
	Penalized  int
	// Extractions and Relaxations count priority-queue work. On a warm
	// update they cover only the re-relaxed region, not the whole map.
	Extractions int64
	Relaxations int64
	// Incremental reports whether this update took the warm path (false
	// for full re-maps and plain rebuilds) — observability only.
	Incremental bool
	// LabelsChanged counts the labels whose value this recompute changed:
	// on the warm path only those that differ from the previous run; a
	// full re-map counts every labeled node (Reached) — observability
	// only.
	LabelsChanged int
	// RouteGen is the vantage's route-set generation: it advances only
	// when a recompute changed (or may have changed) Entries, so a
	// consumer holding the previous Result's RouteGen can skip rebuilding
	// downstream artifacts — e.g. routed's resolver stores — when an
	// update was a no-op for this vantage.
	RouteGen uint64
	// MapDur and RouteDur split this recompute's wall time between the
	// mapping run and route derivation/assembly — observability only,
	// zero when the result was served from cache.
	MapDur   time.Duration
	RouteDur time.Duration
}

// plainState is the fallback world for input sets the journal cannot
// represent (syntax errors, duplicate input names): a from-scratch merge
// whose graph serves every vantage until a clean update arrives. Runs
// over it use the one-shot mapper (which owns Node.M), so they are
// serialized by the Multi lock.
type plainState struct {
	g *graph.Graph
}

// genChange is one journal generation's derived change set, kept so a
// vantage that last mapped an older generation can warm-start across
// several updates by replaying the union of the deltas in between.
type genChange struct {
	jgen       uint64
	structural bool
	grown      bool
	edges      []edgeEvent
	attrs      []int32
	netFlips   []int32
}

// History bounds: a vantage further behind than the retained window
// takes a full re-map instead (correct, just colder).
const (
	maxHistGens   = 64
	maxHistEvents = 1 << 14
)

// core owns the shared pipeline state. Not safe for concurrent use:
// Multi wraps it with the locking and vantage management for
// concurrent multi-source serving.
type core struct {
	opts  Options
	mopts mapper.Options
	popts parser.Options
	avoid map[string]bool

	// Input bookkeeping.
	files      []*fileState
	byName     map[string]*fileState
	posOf      []int32
	nextFileID int32

	// Journaled graph state (apply.go).
	journaled    bool
	g            *graph.Graph
	snap         *graph.Snapshot
	nstates      []nodeState
	firstNewNode int32
	declIdx      map[uint64][]declRec
	aliases      map[uint64]*aliasState
	gwPairs      map[uint64]int32
	privCount    map[string]int32
	ch           changes
	pendingWarns []string
	pendingMarks []*graph.Link

	// Journal writer (apply.go): replay appends each statement's effects
	// to jw and its end offset to jends, and keys link declarations from
	// nextSeq in steps of seqStep. jwBuf and jendsBuf keep the scratch
	// arrays of statement-range patches for reuse.
	jw               []jent
	jends            []int32
	nextSeq, seqStep uint64
	jwBuf            []jent
	jendsBuf         []int32

	// Change capture (apply.go): prior state of everything this update
	// touched, compared after patching to derive the semantic delta.
	capturing   bool
	beforeLinks map[*graph.Link]linkSig
	beforeAttrs map[int32]attrSig
	removedNow  map[*graph.Link]bool

	// Name-resolution caches for the apply path (apply.go), mirroring
	// the merger's: a one-entry left-hand cache plus a direct-mapped
	// destination cache, cleared on every scope change. The destination
	// cache is larger than the merger's 256 slots: the engine re-applies
	// whole files whose destinations spread across the map, where the
	// parse-time locality assumption is weaker.
	refName  string
	refNode  *graph.Node
	refDests [2048]struct {
		name string
		node *graph.Node
	}

	// Generations. updGen counts effective updates (anything that could
	// change results); jgen counts journal patches; graphGen counts
	// journal rebuilds (each allocates a fresh graph, so vantage
	// machines bound to the old one must be rebuilt).
	updGen   uint64
	jgen     uint64
	graphGen uint64
	hist     []genChange
	warnings []string    // current update's warnings, shared by vantages
	plain    *plainState // non-nil while the last update took the plain path

	touchedBuf []bool

	// Stats counts engine activity for observability.
	Stats EngineStats

	// timing records where the last effective update spent its time;
	// see UpdateTiming.
	timing UpdateTiming
}

// UpdateTiming is the per-phase breakdown of the last effective Update
// — the raw material of the serving layer's re-map stage traces.
// Observability only; consumed via Multi.Timing.
type UpdateTiming struct {
	Scan     time.Duration // hash, diff, and (re-)parse changed inputs
	Patch    time.Duration // journal patch / rebuild / plain merge
	Snapshot time.Duration // CSR snapshot + change history + warnings
	Map      time.Duration // vantage mapping + route derivation, wall

	// MapSum and RouteSum split Map by work kind, summed across
	// vantages — with parallel recomputes they can exceed the Map wall.
	MapSum   time.Duration
	RouteSum time.Duration

	// LabelsChanged sums Result.LabelsChanged across the recomputed
	// vantages: how large the mapping work really was.
	LabelsChanged int

	// StmtsReplayed counts the statements the patch applied plus those
	// it undid: a changed file's middle statements on the incremental
	// path, every statement on a rebuild or plain merge.
	StmtsReplayed int

	// Path is how the graph reached the new input set: "incremental",
	// "rebuild", "plain", or "unchanged".
	Path string

	Rescanned    int // inputs re-parsed
	Nodes        int // graph size after the update
	NodesTouched int // nodes the patch touched (== Nodes after a rebuild)
	LinksTouched int // link events in the change set
}

// EngineStats count engine activity across updates. Incremental and
// FullRemaps count per-vantage mapping runs.
type EngineStats struct {
	Updates      int // Update calls that did work
	Unchanged    int // Update calls with identical inputs
	Incremental  int // warm-path vantage re-maps
	FullRemaps   int // full vantage re-maps over the patched graph
	Rebuilds     int // full journal rebuilds (first run, reorders, errors)
	Rescanned    int // inputs re-scanned
	RangePatches int // changed files patched by statement range
	// StmtsReplayed sums UpdateTiming.StmtsReplayed over the updates.
	StmtsReplayed int
}

// newCore builds the shared pipeline state with no vantages.
func newCore(opts Options) *core {
	mopts := mapper.DefaultOptions()
	if opts.Mapper != nil {
		mopts = *opts.Mapper
	}
	if opts.MaxDirtyFrac == 0 {
		opts.MaxDirtyFrac = 0.25
	}
	e := &core{
		opts:   opts,
		mopts:  mopts,
		popts:  parser.Options{FoldCase: opts.FoldCase, Workers: opts.Workers},
		byName: make(map[string]*fileState),
		avoid:  make(map[string]bool),
	}
	for _, a := range opts.Avoid {
		e.avoid[e.foldName(a)] = true
	}
	return e
}

func (e *core) foldName(s string) string {
	if !e.opts.FoldCase {
		return s
	}
	return strings.ToLower(s)
}

// sync brings the shared pipeline state — fragment cache, journaled
// graph, CSR snapshot, warnings, change history — to the given input
// set, without mapping any vantage.
func (e *core) sync(inputs []Input) error {
	if len(inputs) == 0 {
		return fmt.Errorf("remap: no inputs")
	}
	start := time.Now()
	e.timing = UpdateTiming{Path: "unchanged"}

	// Phase 1: hash, diff, and scan changed inputs.
	type slot struct {
		in    Input
		hash  uint64
		reuse *fileState
		frag  *parser.Fragment
	}
	slots := make([]slot, len(inputs))
	seen := make(map[string]bool, len(inputs))
	dupNames := false
	toScan := 0
	for i, in := range inputs {
		if seen[in.Name] {
			dupNames = true
		}
		seen[in.Name] = true
		h := parser.HashInput(in)
		slots[i] = slot{in: in, hash: h}
		if old := e.byName[in.Name]; old != nil && old.hash == h {
			slots[i].reuse = old
		} else {
			toScan++
		}
	}

	// Unchanged input set in unchanged order, and the last update was
	// journaled: nothing to do — every vantage's cached result (keyed by
	// updGen) stays valid. The plain guard keeps a plain update's
	// generation from masquerading as the journaled one.
	if e.journaled && e.plain == nil && !dupNames && toScan == 0 && len(inputs) == len(e.files) {
		same := true
		for i, s := range slots {
			if e.files[i] != s.reuse {
				same = false
				break
			}
		}
		if same {
			e.Stats.Unchanged++
			return nil
		}
	}

	// Scan changed inputs, in parallel when there are several.
	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && toScan > 1 {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := range slots {
			if slots[i].reuse != nil {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				slots[i].frag = parser.ScanFragment(e.popts, slots[i].in)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range slots {
			if slots[i].reuse == nil {
				slots[i].frag = parser.ScanFragment(e.popts, slots[i].in)
			}
		}
	}
	e.Stats.Rescanned += toScan
	e.Stats.Updates++
	e.timing.Scan = time.Since(start)
	e.timing.Rescanned = toScan

	// Phase 2: pick the path. Fragments with syntax errors cannot be
	// journaled (the MaxErrors budget couples files); serve a plain
	// merge and leave the journaled state at its last clean input set.
	anyErrors := false
	frags := make([]*parser.Fragment, len(slots))
	for i := range slots {
		if slots[i].frag != nil {
			frags[i] = slots[i].frag
		} else {
			frags[i] = slots[i].reuse.frag
		}
		if frags[i].ErrorCount() > 0 {
			anyErrors = true
		}
	}
	if anyErrors || dupNames {
		mark := time.Now()
		err := e.plainSync(frags)
		e.timing.Patch = time.Since(mark)
		e.timing.Path = "plain"
		if e.plain != nil {
			e.timing.Nodes = e.plain.g.Len()
			e.timing.NodesTouched = e.timing.Nodes
		}
		return err
	}

	// Phase 3: bring the journaled graph to the new input set.
	reorder := false
	if e.journaled {
		// The relative order of surviving files must be preserved —
		// duplicate-link priority is declaration order. Any true
		// reorder rebuilds the journal state from (cached) fragments.
		lastPos := -1
		for _, s := range slots {
			if s.reuse == nil {
				continue
			}
			p := int(e.posOf[s.reuse.id])
			if p < lastPos {
				reorder = true
				break
			}
			lastPos = p
		}
	}

	newStates := make([]*fileState, len(slots))
	scopeSwitch := false
	for i, s := range slots {
		if s.reuse != nil {
			newStates[i] = s.reuse
			continue
		}
		newStates[i] = &fileState{
			id:            e.nextFileID,
			name:          s.in.Name,
			hash:          s.hash,
			frag:          s.frag,
			lastPrivate:   s.frag.LastPrivate(),
			hasFileSwitch: s.frag.SwitchesFile(),
		}
		e.nextFileID++
		if newStates[i].hasFileSwitch {
			// A mid-stream file{} scope switch can rebind names for
			// other inputs; replaying just this file cannot reproduce
			// that, so rebuild the journal state whenever such a file
			// changes.
			scopeSwitch = true
		}
		if old := e.byName[s.in.Name]; old != nil && old.hasFileSwitch {
			scopeSwitch = true
		}
	}
	// A removed file{}-switching file may have rebound names that other
	// (unchanged) files resolved through; only a rebuild replays those.
	if e.journaled {
		for _, f := range e.files {
			if f.hasFileSwitch && !seen[f.name] {
				scopeSwitch = true
			}
		}
	}

	mark := time.Now()
	if !e.journaled || reorder || scopeSwitch {
		e.rebuildAll(newStates)
		e.timing.Path = "rebuild"
	} else {
		e.syncIncremental(newStates)
		e.timing.Path = "incremental"
	}
	e.timing.Patch = time.Since(mark)
	e.Stats.StmtsReplayed += e.timing.StmtsReplayed
	mark = time.Now()

	// Phase 4: new generation — snapshot, change history, warnings.
	e.jgen++
	e.updGen++
	e.plain = nil
	e.recordHistory()
	if e.ch.structural || e.snap == nil {
		e.snap = e.g.Snapshot()
	} else {
		// Grown generations patch too: SnapshotPatched treats appended
		// nodes as touched and merge-ranks the new names, so a host add
		// pays O(changed) + O(nodes), not a full CSR rebuild and re-sort.
		n := e.g.Len()
		if cap(e.touchedBuf) >= n {
			e.touchedBuf = e.touchedBuf[:n]
			clear(e.touchedBuf)
		} else {
			e.touchedBuf = make([]bool, n)
		}
		for id := range e.ch.touched {
			e.touchedBuf[id] = true
		}
		e.snap = e.g.SnapshotPatched(e.snap, e.touchedBuf)
	}
	e.warnings = e.computeWarnings()
	e.timing.Snapshot = time.Since(mark)
	e.timing.Nodes = e.g.Len()
	e.timing.LinksTouched = len(e.ch.edges)
	if e.timing.Path == "rebuild" {
		e.timing.NodesTouched = e.timing.Nodes
	} else {
		e.timing.NodesTouched = len(e.ch.touched)
	}
	return nil
}

// recordHistory appends this journal generation's change set to the
// retained history, pruning from the oldest end when over budget.
func (e *core) recordHistory() {
	gc := genChange{jgen: e.jgen, structural: e.ch.structural, grown: e.ch.grown}
	if !gc.structural {
		// Structural generations force a full re-map for every vantage
		// that hasn't crossed them; their event lists are never read.
		// Grown generations stay warm-mappable (the machines re-base
		// their ranks), so their events are retained like any other.
		gc.edges = append([]edgeEvent(nil), e.ch.edges...)
		gc.attrs = append([]int32(nil), e.ch.attrs...)
		gc.netFlips = append([]int32(nil), e.ch.netFlips...)
	}
	e.hist = append(e.hist, gc)
	total := 0
	for _, h := range e.hist {
		total += len(h.edges) + len(h.attrs)
	}
	for len(e.hist) > maxHistGens || (total > maxHistEvents && len(e.hist) > 1) {
		total -= len(e.hist[0].edges) + len(e.hist[0].attrs)
		e.hist = e.hist[1:]
	}
}

// eventsSince merges the change sets of every journal generation after
// jgen. structural reports that the range contains a structural change
// or reaches beyond the retained history — either way the vantage needs
// a full re-map and the event lists are meaningless. grown reports that
// the range added nodes: the events are still usable, but the vantage
// must re-base its machine's ranks (mapper.RebaseGrow) before warming.
func (e *core) eventsSince(jgen uint64) (structural, grown bool, edges []edgeEvent, attrs, netFlips []int32) {
	if jgen == e.jgen {
		return false, false, nil, nil, nil
	}
	if len(e.hist) == 0 || e.hist[0].jgen > jgen+1 {
		return true, false, nil, nil, nil
	}
	lo := 0
	for lo < len(e.hist) && e.hist[lo].jgen <= jgen {
		lo++
	}
	span := e.hist[lo:]
	for _, h := range span {
		if h.structural {
			return true, false, nil, nil, nil
		}
		grown = grown || h.grown
	}
	if len(span) == 1 {
		return false, grown, span[0].edges, span[0].attrs, span[0].netFlips
	}
	for _, h := range span {
		edges = append(edges, h.edges...)
		attrs = append(attrs, h.attrs...)
		netFlips = append(netFlips, h.netFlips...)
	}
	return false, grown, edges, attrs, netFlips
}

// rebuildAll reconstructs the journaled graph from scratch over the
// (cached) fragments — the cold path: first update, input reorder, or
// recovery after a plain run. The fresh graph obsoletes every vantage
// machine (graphGen) and the retained change history.
func (e *core) rebuildAll(states []*fileState) {
	e.Stats.Rebuilds++
	g := graph.New()
	g.SetFoldCase(e.opts.FoldCase)
	total := 0
	for _, f := range states {
		total += f.frag.SrcLen()
	}
	g.ReserveLinks(total / 30)
	g.ReserveNames(total / 75)

	e.g = g
	e.graphGen++
	e.hist = e.hist[:0]
	e.snap = nil
	e.nstates = e.nstates[:0]
	e.declIdx = make(map[uint64][]declRec)
	e.aliases = make(map[uint64]*aliasState)
	e.gwPairs = make(map[uint64]int32)
	e.privCount = make(map[string]int32)
	e.pendingMarks = nil
	e.ch.reset()
	e.ch.structural = true
	e.firstNewNode = 0
	e.capturing = false // everything changes; no point diffing

	e.files = states
	e.byName = make(map[string]*fileState, len(states))
	e.posOf = make([]int32, e.nextFileID)
	for i, f := range states {
		f.j = journal{}
		e.byName[f.name] = f
		e.posOf[f.id] = int32(i)
	}
	for _, f := range states {
		e.apply(f)
	}
	e.applyPendings()
	e.journaled = true
}

// syncIncremental patches the journaled graph from the current file set
// to states: undo removed/changed files, redo changed/added ones, then
// re-resolve the deferred link operations.
func (e *core) syncIncremental(states []*fileState) {
	e.ch.reset()
	e.firstNewNode = int32(e.g.Len())
	e.capturing = true
	if e.beforeLinks == nil {
		e.beforeLinks = make(map[*graph.Link]linkSig)
		e.beforeAttrs = make(map[int32]attrSig)
		e.removedNow = make(map[*graph.Link]bool)
	} else {
		clear(e.beforeLinks)
		clear(e.beforeAttrs)
		clear(e.removedNow)
	}

	// Lift the pending dead/delete marks; they are re-derived at the
	// end, and the capture layer nets out marks that come straight back.
	// (Invented back links never touch the shared graph: each vantage
	// machine keeps its own overlay and sweeps it at warm start.)
	for _, l := range e.pendingMarks {
		e.setLinkFlagsTracked(l, l.Flags&^(graph.LDead|graph.LDeleted))
	}
	e.pendingMarks = e.pendingMarks[:0]

	// Positions first: declaration priority is input position, and both
	// undo and redo consult it.
	for int(e.nextFileID) > len(e.posOf) {
		e.posOf = append(e.posOf, 0)
	}
	for i, f := range states {
		e.posOf[f.id] = int32(i)
		if old := e.byName[f.name]; old != nil && old != f {
			e.posOf[old.id] = int32(i) // its records share the position until undone
		}
	}

	current := make(map[*fileState]bool, len(states))
	for _, f := range states {
		current[f] = true
	}
	// Removed files go first.
	for i := len(e.files) - 1; i >= 0; i-- {
		f := e.files[i]
		if !current[f] && e.byName[f.name] == f && !inStates(states, f.name) {
			e.undo(f)
			delete(e.byName, f.name)
		}
	}
	// Changed and added files, in input order. A changed file is
	// patched by statement range (patch): only the statements between
	// the common prefix and suffix of its old and new fragments replay,
	// the new ones BEFORE the old ones are undone, so shared
	// contributions never transit through zero: surviving links keep
	// their identity and labels pointing at them stay valid. The journal
	// holds no references into the old source text (names are interned,
	// pending/private strings cloned), so the old text is dropped as
	// usual. Where patch declines, the whole file is applied, then its
	// old journal undone — except for files that declare privates:
	// bindings are positional within the file, so the old binding must
	// be gone before the new fragment resolves names, and the
	// conservative undo-first order is used (at the price of a larger
	// dirty region).
	for _, f := range states {
		old := e.byName[f.name]
		if old == f {
			continue // unchanged, journal intact
		}
		if old != nil && e.patch(old, f) {
			e.byName[f.name] = f
			e.Stats.RangePatches++
			continue
		}
		if old != nil && (old.lastPrivate >= 0 || f.lastPrivate >= 0) {
			e.undo(old)
			old = nil
		}
		e.apply(f)
		if old != nil {
			e.undo(old)
		}
		e.byName[f.name] = f
	}
	e.files = states

	e.applyPendings()
	e.deriveEvents()
	e.capturing = false
}

func inStates(states []*fileState, name string) bool {
	for _, f := range states {
		if f.name == name {
			return true
		}
	}
	return false
}

// applyPendings re-resolves every file's deferred dead/delete link items
// against the patched graph, collecting the no-such-link warnings. Mark
// changes surface through the capture layer's before/after diff.
func (e *core) applyPendings() {
	e.pendingWarns = e.pendingWarns[:0]
	e.pendingMarks = e.pendingMarks[:0]
	for _, f := range e.files {
		for _, p := range f.j.pendings {
			e.g.BeginFile(p.File)
			from := e.g.Ref(p.From)
			to := e.g.Ref(p.To)
			l := e.g.FindLink(from, to)
			if l == nil {
				verb := "dead"
				if p.Delete {
					verb = "delete"
				}
				e.pendingWarns = append(e.pendingWarns,
					fmt.Sprintf("%s: %s{%s!%s}: no such link", p.Pos, verb, p.From, p.To))
				continue
			}
			bit := graph.LDead
			if p.Delete {
				bit = graph.LDeleted
			}
			if l.Flags&bit == 0 {
				e.setLinkFlagsTracked(l, l.Flags|bit)
			}
			e.pendingMarks = append(e.pendingMarks, l)
		}
	}
	// An LDeleted mark removes the edge from its from-node's snapshot
	// row; LDead only re-weights it. Either way the from-node is touched
	// through the capture diff, which is all the snapshot patch needs.
}

// localNodeFor resolves a vantage host in the current graph; a ghost
// (no current file references it) counts as absent, as it would be in a
// fresh parse. The name must already be case-folded.
func (e *core) localNodeFor(host string) (*graph.Node, error) {
	n, ok := e.g.Lookup(host)
	if ok && e.nstate(n).ghost {
		ok = false
	}
	if !ok {
		return nil, fmt.Errorf("remap: local host %q not found in input", host)
	}
	return n, nil
}

// computeWarnings reconstructs the warning list a fresh run over the
// current inputs would produce: per-file scan warnings in input order,
// then the pending-link warnings, then avoid-resolution warnings. The
// list is vantage-independent.
func (e *core) computeWarnings() []string {
	var out []string
	for _, f := range e.files {
		out = append(out, f.frag.WarningTexts()...)
	}
	out = append(out, e.pendingWarns...)
	for _, a := range e.opts.Avoid {
		n, ok := e.g.Lookup(a)
		if !ok || e.nstate(n).ghost {
			out = append(out, fmt.Sprintf("avoid: unknown host %q", a))
		}
	}
	return out
}

// plainSync serves input sets the journal cannot represent (syntax
// errors, duplicate input names) with a from-scratch merge over the
// scanned fragments, leaving the journaled state untouched. Vantage
// results are then one-shot mapper runs over the merged graph.
func (e *core) plainSync(frags []*parser.Fragment) error {
	pres, err := parser.MergeFragments(e.popts, frags)
	e.timing.StmtsReplayed = pres.StmtsReplayed
	e.Stats.StmtsReplayed += pres.StmtsReplayed
	if err != nil {
		return err
	}
	g := pres.Graph
	warnings := pres.Warnings
	for _, a := range e.opts.Avoid {
		n, ok := g.Lookup(a)
		if !ok {
			warnings = append(warnings, fmt.Sprintf("avoid: unknown host %q", a))
			continue
		}
		g.AdjustNode(n, mapper.DefaultDeadPenalty)
	}
	e.plain = &plainState{g: g}
	e.warnings = warnings
	e.updGen++
	return nil
}
