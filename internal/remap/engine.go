// Package remap is the incremental re-map engine: it owns the
// parse→graph→map→print pipeline as persistent state, so that when a
// few map files change, only the changed work is redone.
//
// pathalias was built as a batch compiler — the paper's deployments
// re-mapped weekly because every run re-parsed and re-mapped the world.
// The engine turns the pipeline into a live service:
//
//   - per-input parsed fragments are cached with the source they were
//     scanned from, so an Update tells unchanged inputs by comparing
//     bytes and re-scans only the changed statements of the others
//     (parser.Rescan: a window around the edit, the rest reused);
//   - the connectivity graph persists and is patched in place through
//     per-file journals (apply.go) instead of being rebuilt — an edited
//     file replays and undoes only the statements between the common
//     prefix and suffix of its old and new fragments;
//   - the CSR snapshot and its reverse adjacency are patched from the
//     previous ones by block-copying the rows of untouched nodes
//     (graph.SnapshotPatched);
//   - the mapper warm-starts (mapper.Machine): labels of nodes whose
//     cost frontier is untouched survive, only the dirty region is
//     re-relaxed, and the whole run falls back to a full re-map when the
//     delta is too large, touches the root, or changes the node set;
//   - route format strings are patched per changed subtree (routes.go)
//     rather than re-derived for every host, and merged into the row
//     array a Result hands out without a further copy.
//
// The shared half of that state — fragment cache, journaled graph, CSR
// snapshot, per-update change history — is the core, one copy
// regardless of how many vantage points are being mapped. The
// per-source half — a mapper.Machine, route frames, the latest
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
	"slices"
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
	// order them under the engine's printer options. The slice is the
	// vantage's own row array, not a copy, and it is immutable: the
	// engine never writes it again (a recompute that changes a row
	// merges into a fresh array; one that changes none hands out the
	// same slice again), so it stays valid indefinitely and consumers
	// share it — route stores index it in place. Callers must not
	// write it.
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
	// for full re-maps) — observability only.
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
	// mapping run and route derivation — observability only,
	// zero when the result was served from cache.
	MapDur   time.Duration
	RouteDur time.Duration
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

	// Journaled graph state (apply.go): refcounts and the attribute
	// ledger by node ID, the declaration records (decls[0] unused,
	// declFree heading the free list), and the first node ID this update
	// created.
	journaled    bool
	g            *graph.Graph
	snap         *graph.Snapshot
	refs         []int32
	nstates      []nodeState
	decls        []declRec
	declFree     int32
	firstNewNode int32
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

	// names resolves names for the apply path (apply.go), the cache the
	// batch merge uses too; reset on every scope change.
	names graph.RefCache

	// Generations. updGen counts effective updates (anything that could
	// change results); jgen counts journal patches; graphGen counts
	// journal rebuilds (each allocates a fresh graph, so vantage
	// machines bound to the old one must be rebuilt).
	updGen   uint64
	jgen     uint64
	graphGen uint64
	hist     []genChange
	warnings []string // current update's warnings, shared by vantages

	touchedBuf []int32 // ch.touched as a list, for SnapshotPatched

	// rejected is the last input set sync rejected for syntax errors,
	// and rejectedErr the error it got: the same set again (a watcher
	// re-reading a file that is still broken) gets that error back
	// without a scan.
	rejected    []Input
	rejectedErr error

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
	Scan     time.Duration // diff inputs, rescan the changed ones
	Patch    time.Duration // journal patch / rebuild
	Snapshot time.Duration // CSR snapshot (with its reverse adjacency, when patched) + change history + warnings
	Map      time.Duration // default vantage mapping + route derivation inside Update, wall

	// MapSum and RouteSum split the mapping work by kind, summed across
	// every vantage recomputed since the update began: the default in
	// Update, the others in Refresh or a catching-up ResultFor. They
	// can exceed the Map wall, which covers the default alone.
	MapSum   time.Duration
	RouteSum time.Duration

	// LabelsChanged sums Result.LabelsChanged across the recomputed
	// vantages: how large the mapping work really was.
	LabelsChanged int

	// StmtsReplayed counts the statements the patch applied plus those
	// it undid: a changed file's middle statements on the incremental
	// path, every statement on a rebuild.
	StmtsReplayed int

	// Path is how the graph reached the new input set: "incremental",
	// "rebuild", or "unchanged" (also for an input set rejected for its
	// syntax errors: the graph stays at the last accepted one).
	Path string

	Rescanned      int // inputs re-parsed
	BytesRescanned int // source bytes the rescans scanned (parser.Window)
	Nodes          int // graph size after the update
	NodesTouched   int // nodes the patch touched (== Nodes after a rebuild)
	LinksTouched   int // link events in the change set

	// RowsRebuilt counts the CSR rows the snapshot rebuilt from the live
	// adjacency lists (every row on a full build; graph.Snapshot.Rebuilt),
	// and ReversePatched whether its reverse adjacency was patched from
	// the previous snapshot's rather than left to a full build.
	RowsRebuilt    int
	ReversePatched bool
}

// EngineStats count engine activity across updates. Incremental and
// FullRemaps count per-vantage mapping runs.
type EngineStats struct {
	Updates      int // Update calls that did work
	Unchanged    int // Update calls with identical inputs
	Incremental  int // warm-path vantage re-maps
	FullRemaps   int // full vantage re-maps over the patched graph
	Rebuilds     int // full journal rebuilds (first run, reorders, file{} switches, repeated names)
	Rescanned    int // inputs re-scanned
	RangePatches int // changed files patched by statement range
	// BytesRescanned sums UpdateTiming.BytesRescanned over the updates.
	BytesRescanned int
	// StmtsReplayed sums UpdateTiming.StmtsReplayed over the updates.
	StmtsReplayed int
	// RowsRebuilt sums UpdateTiming.RowsRebuilt over the updates.
	RowsRebuilt int
}

// newCore builds the shared pipeline state with no vantages.
func newCore(opts Options) *core {
	mopts := mapper.DefaultOptions()
	if opts.Mapper != nil {
		mopts = *opts.Mapper
	}
	e := &core{
		opts:   opts,
		mopts:  mopts,
		popts:  parser.Options{FoldCase: opts.FoldCase},
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
	if e.rejectedErr != nil && slices.Equal(inputs, e.rejected) {
		return e.rejectedErr
	}
	e.rejected, e.rejectedErr = nil, nil
	start := time.Now()
	e.timing = UpdateTiming{Path: "unchanged"}

	// Phase 1: diff inputs against the sources their cached fragments
	// were scanned from, and rescan the changed ones. An input whose name
	// the previous set repeated may also match the copy at its own
	// position.
	type slot struct {
		in    Input
		reuse *fileState
		old   *parser.Fragment // the input's previous fragment, nil if new
		frag  *parser.Fragment
		win   parser.Window
	}
	slots := make([]slot, len(inputs))
	seen := make(map[string]bool, len(inputs))
	dupNames := len(e.byName) < len(e.files) // the previous set repeated a name
	toScan := 0
	for i, in := range inputs {
		if seen[in.Name] {
			dupNames = true
		}
		seen[in.Name] = true
		slots[i] = slot{in: in}
		old := e.byName[in.Name]
		if i < len(e.files) && e.files[i] != old && e.files[i].name == in.Name && e.files[i].frag.Src() == in.Src {
			old = e.files[i]
		}
		if old != nil && old.frag.Src() == in.Src {
			slots[i].reuse = old
		} else {
			if old != nil {
				slots[i].old = old.frag
			}
			toScan++
		}
	}

	// Unchanged input set in unchanged order: nothing to do — every
	// vantage's cached result (keyed by updGen) stays valid.
	if e.journaled && toScan == 0 && len(inputs) == len(e.files) {
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

	// Scan changed inputs, one per P at a time.
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
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
			slots[i].frag, slots[i].win = parser.Rescan(e.popts, slots[i].old, slots[i].in)
		}(i)
	}
	wg.Wait()
	for _, s := range slots {
		e.timing.BytesRescanned += s.win.Bytes
	}
	e.Stats.Rescanned += toScan
	e.Stats.BytesRescanned += e.timing.BytesRescanned
	e.Stats.Updates++
	e.timing.Scan = time.Since(start)
	e.timing.Rescanned = toScan

	// Phase 2: reject an input set with syntax errors, reporting what a
	// parse of it would. The journaled state, the fragment cache and every
	// cached result stay at the last accepted input set.
	frags := make([]*parser.Fragment, len(slots))
	for i, s := range slots {
		if s.frag != nil {
			frags[i] = s.frag
		} else {
			frags[i] = s.reuse.frag
		}
	}
	if errs := parser.Errors(frags); errs != nil {
		e.rejected, e.rejectedErr = slices.Clone(inputs), &parser.ParseError{Errors: errs}
		return e.rejectedErr
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

	// Each file gets its own state, whose journal is applied once: a
	// repeated name whose copies diff against one cached file shares the
	// fragment, not the state.
	newStates := make([]*fileState, len(slots))
	scopeSwitch := false
	for i, s := range slots {
		if s.reuse != nil && !(dupNames && slices.Contains(newStates[:i], s.reuse)) {
			newStates[i] = s.reuse
			continue
		}
		frag := frags[i]
		newStates[i] = &fileState{
			id:            e.nextFileID,
			name:          s.in.Name,
			frag:          frag,
			win:           s.win,
			lastPrivate:   frag.LastPrivate(),
			hasFileSwitch: frag.SwitchesFile(),
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

	// Repeated names rebuild too: the journal's per-name bookkeeping
	// (byName, statement-range patches, undo) assumes one file per name,
	// while a rebuild replays the copies in input order, all in the one
	// private scope of their name, as a parse of the same inputs does.
	mark := time.Now()
	if !e.journaled || reorder || scopeSwitch || dupNames {
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
	e.recordHistory()
	if e.ch.structural || e.snap == nil {
		e.snap = e.g.Snapshot()
	} else {
		// Grown generations patch too: SnapshotPatched treats appended
		// nodes as touched and merge-ranks the new names, so a host add
		// pays O(changed) + O(nodes), not a full CSR rebuild and re-sort.
		e.touchedBuf = e.touchedBuf[:0]
		for id := range e.ch.touched {
			e.touchedBuf = append(e.touchedBuf, id)
		}
		e.snap = e.g.SnapshotPatched(e.snap, e.touchedBuf)
	}
	e.timing.RowsRebuilt, e.timing.ReversePatched = e.snap.Rebuilt()
	e.Stats.RowsRebuilt += e.timing.RowsRebuilt
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

// mapEvents is what changed under a machine's labeling since it was
// computed, in the terms vantage.remap consumes: a span of the journal
// (core.eventsSince) or the edits of a what-if overlay (overlayEvents).
// structural means the events cannot be replayed and the run must be
// full; grown that nodes were appended, so the machine must re-base
// (mapper.RebaseGrow) before warming. edits is the overlay itself, which
// the machine's back-link pass consults (mapper.Machine.UseEdits); nil
// for journal events.
type mapEvents struct {
	structural, grown bool
	edges             []edgeEvent
	attrs, netFlips   []int32
	edits             *graph.Overlay
}

// eventsSince merges the change sets of every journal generation after
// jgen. The result is structural when the range contains a structural
// change or reaches beyond the retained history.
func (e *core) eventsSince(jgen uint64) mapEvents {
	if jgen == e.jgen {
		return mapEvents{}
	}
	if len(e.hist) == 0 || e.hist[0].jgen > jgen+1 {
		return mapEvents{structural: true}
	}
	lo := 0
	for lo < len(e.hist) && e.hist[lo].jgen <= jgen {
		lo++
	}
	span := e.hist[lo:]
	var ev mapEvents
	for _, h := range span {
		if h.structural {
			return mapEvents{structural: true}
		}
		ev.grown = ev.grown || h.grown
	}
	if len(span) == 1 {
		ev.edges, ev.attrs, ev.netFlips = span[0].edges, span[0].attrs, span[0].netFlips
		return ev
	}
	for _, h := range span {
		ev.edges = append(ev.edges, h.edges...)
		ev.attrs = append(ev.attrs, h.attrs...)
		ev.netFlips = append(ev.netFlips, h.netFlips...)
	}
	return ev
}

// rebuildAll reconstructs the journaled graph from scratch over the
// (cached) fragments — the cold path: first update, input reorder, a
// file{} scope switch, or a repeated input name. The fresh graph
// obsoletes every vantage machine (graphGen) and the retained change
// history.
func (e *core) rebuildAll(states []*fileState) {
	e.Stats.Rebuilds++
	g := graph.New()
	g.SetFoldCase(e.opts.FoldCase)
	total := 0
	for _, f := range states {
		total += len(f.frag.Src())
	}
	g.ReserveLinks(total / 30)
	g.ReserveNames(total / 75)
	e.refs = slices.Grow(e.refs[:0], total/75)
	e.decls = append(slices.Grow(e.decls[:0], total/30+1), declRec{})
	e.declFree = 0

	e.g = g
	e.graphGen++
	e.hist = e.hist[:0]
	e.snap = nil
	e.nstates = e.nstates[:0]
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
	e.growRefs() // ghost reads the refcount of every older node
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
	if ok && e.ghost(id32(n)) {
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
		if !ok || e.ghost(id32(n)) {
			out = append(out, fmt.Sprintf("avoid: unknown host %q", a))
		}
	}
	return out
}
