package parser

// Exported fragment API for the incremental re-map engine (internal/remap).
//
import (
	"runtime"
	"slices"

	"pathalias/internal/cost"
	"pathalias/internal/graph"
)

// ParseWith scans and merges in one shot; the engine needs the two phases
// separately so it can cache the expensive one. A Fragment is one scanned
// file — the flat replay log of fragment.go — keyed by a content hash, so
// an engine re-scans only inputs whose bytes actually changed and replays
// cached fragments for the rest. MergeFragments then rebuilds a graph from
// any fragment sequence exactly as a serial parse of the same files would.

// Fragment is one scanned input, reusable across merges. It is immutable
// after ScanFragment returns and safe to merge any number of times, into
// any number of graphs, from one goroutine at a time per merge target.
type Fragment struct {
	frag     *fragment
	foldCase bool
	srcLen   int
	hash     uint64
}

// Name returns the input name the fragment was scanned from.
func (f *Fragment) Name() string { return f.frag.name }

// Hash returns the content hash of (name, source) the fragment was built
// from, the engine's cache key.
func (f *Fragment) Hash() uint64 { return f.hash }

// SrcLen returns the length of the scanned source, preserved for the
// merge-time graph sizing hints.
func (f *Fragment) SrcLen() int { return f.srcLen }

// Stmts returns the number of replayable operations in the fragment.
func (f *Fragment) Stmts() int { return len(f.frag.stmts) }

// HashInput computes the fragment cache key for an input: a 64-bit
// FNV-1a-style fingerprint over the name, a separator, and the source
// text, folding eight bytes per multiply so hashing is not the
// bottleneck of a no-op engine update (it runs over every input on
// every watch poll). The name participates because it is semantic —
// private declarations scope to the file name.
func HashInput(in Input) uint64 {
	const offset64 = 14695981039346656037
	h := hashChunk(offset64, in.Name)
	h = (h ^ 0xff) * hashPrime64 // separator outside both alphabets
	return hashChunk(h, in.Src)
}

const hashPrime64 = 1099511628211

func hashChunk(h uint64, s string) uint64 {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		h = (h ^ w) * hashPrime64
	}
	for ; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime64
	}
	return h
}

// ScanFragment scans one input into a reusable fragment (phase one of the
// parse, file-local and independent of every other input). Large inputs
// scan in statement-boundary chunks across Options.Workers goroutines
// (split.go); the fragment is identical either way.
func ScanFragment(opts Options, in Input) *Fragment {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Fragment{
		frag:     scanFileParallel(opts, in, workers),
		foldCase: opts.FoldCase,
		srcLen:   len(in.Src),
		hash:     HashInput(in),
	}
}

// MergeFragments replays the fragments in order into a fresh graph,
// producing exactly what ParseWith would for the same inputs and options:
// node creation order, duplicate-link folding, error budgets, and
// diagnostics are all byte-identical to a serial parse. Fragments must
// have been scanned with the same FoldCase the merge uses.
func MergeFragments(opts Options, frags []*Fragment) (*Result, error) {
	g := graphForMerge(opts, frags)
	m := &merger{g: g}
	for _, f := range frags {
		if len(m.errors) >= MaxErrors {
			break
		}
		m.merge(f.frag)
	}
	m.finish()
	res := &Result{Graph: g, Warnings: m.warnings, StmtsReplayed: m.stmts}
	if len(m.errors) > 0 {
		return res, &ParseError{Errors: m.errors}
	}
	return res, nil
}

// ReplayKind tags one exported replay operation. The values mirror the
// internal stmtOp vocabulary one to one (same order); Ops converts by
// value, so the two lists must stay in sync.
type ReplayKind uint8

const (
	ReplayRef        ReplayKind = iota // reference A (creates the node)
	ReplayLink                         // link A -> B with Cost/LinkOp
	ReplayNet                          // network A with Members
	ReplayAlias                        // alias A = B
	ReplayPrivate                      // private {A}
	ReplayDeadHost                     // dead {A}
	ReplayDeleteHost                   // delete {A}
	ReplayGatewayed                    // gatewayed {A}
	ReplayGateway                      // gateway {A!B}
	ReplayAdjust                       // adjust {A(Cost)}
	ReplayFile                         // file {A}: switch private scope
)

// ReplayOp is one graph operation of a fragment's replay log, in the
// exported vocabulary the re-map engine journals.
type ReplayOp struct {
	Kind    ReplayKind
	A, B    string
	Cost    cost.Cost
	LinkOp  graph.Op
	Dom     bool     // ReplayLink: B names a domain (gateway side effect)
	Members []string // ReplayNet: member names (view into fragment storage)
}

// Common returns the lengths of the longest common statement prefix and
// suffix of old's and f's replay logs, compared by content (the two
// fragments alias different source buffers; net-member lists compare by
// their names, not their offsets). The two never overlap: prefix+suffix
// is at most the shorter log's length. A journaling engine replays only
// f's statements between them and undoes only old's, instead of undoing
// and redoing the whole file; an append is the case "old's middle and
// the suffix are empty".
//
// old and f must be error-free scans of one input under one case
// folding (the error budget couples statements). The caller owns the
// scope rules: a private or file{} statement at or after the prefix
// changes how the other statements resolve names (see LastPrivate and
// SwitchesFile).
func (f *Fragment) Common(old *Fragment) (prefix, suffix int) {
	a, b := old.frag, f.frag
	n := min(len(a.stmts), len(b.stmts))
	for prefix < n && sameStmt(a, b, &a.stmts[prefix], &b.stmts[prefix]) {
		prefix++
	}
	for suffix < n-prefix &&
		sameStmt(a, b, &a.stmts[len(a.stmts)-1-suffix], &b.stmts[len(b.stmts)-1-suffix]) {
		suffix++
	}
	return prefix, suffix
}

// sameStmt reports whether statement x of a and y of b replay the same
// operation.
func sameStmt(a, b *fragment, x, y *stmt) bool {
	if x.op != opNet || y.op != opNet {
		return *x == *y
	}
	return x.a == y.a && x.cost == y.cost && x.linkOp == y.linkOp &&
		slices.Equal(a.members[x.mlo:x.mhi], b.members[y.mlo:y.mhi])
}

// SamePending reports whether f defers exactly old's dead/delete link
// items, positions included.
func (f *Fragment) SamePending(old *Fragment) bool {
	return slices.Equal(old.frag.pending, f.frag.pending)
}

// LastPrivate returns the index of the fragment's last private
// statement, or -1 if it declares none.
func (f *Fragment) LastPrivate() int {
	for i := len(f.frag.stmts) - 1; i >= 0; i-- {
		if f.frag.stmts[i].op == opPrivate {
			return i
		}
	}
	return -1
}

// SwitchesFile reports whether the fragment contains a file{} scope
// switch.
func (f *Fragment) SwitchesFile() bool { return f.frag.sawFile }

// OpsRange calls yield for each replay operation of statements [lo, hi)
// in order, reusing one ReplayOp buffer across calls; the callback must
// not retain it. It stops early if yield returns false. Common tells a
// journaling engine which range to replay.
//
// OpsRange exposes the budget-free view: callers that need the
// sequential parser's MaxErrors truncation (fragments with errors) must
// use MergeFragments instead — the engine only journals error-free
// fragments, where the two agree.
func (f *Fragment) OpsRange(lo, hi int, yield func(*ReplayOp) bool) {
	var op ReplayOp
	for i := lo; i < hi; i++ {
		st := &f.frag.stmts[i]
		op = ReplayOp{
			Kind:   ReplayKind(st.op),
			A:      st.a,
			B:      st.b,
			Cost:   st.cost,
			LinkOp: st.linkOp,
			Dom:    st.dom,
		}
		if st.op == opNet {
			op.Members = f.frag.members[st.mlo:st.mhi]
		}
		if !yield(&op) {
			return
		}
	}
}

// PendingLink is one deferred dead/delete link operation, applied after
// all input is read.
type PendingLink struct {
	From, To string
	File     string // scope for private resolution
	Pos      string // source position, for the no-such-link warning
	Delete   bool   // true = delete, false = dead
}

// PendingLinks returns the fragment's deferred link operations.
func (f *Fragment) PendingLinks() []PendingLink {
	out := make([]PendingLink, len(f.frag.pending))
	for i, p := range f.frag.pending {
		out[i] = PendingLink{From: p.from, To: p.to, File: p.file, Pos: p.pos, Delete: p.deadNot}
	}
	return out
}

// ErrorCount returns the number of syntax errors in the fragment.
func (f *Fragment) ErrorCount() int { return len(f.frag.errors) }

// ErrorTexts returns the fragment's error messages.
func (f *Fragment) ErrorTexts() []string {
	out := make([]string, len(f.frag.errors))
	for i, n := range f.frag.errors {
		out[i] = n.text
	}
	return out
}

// WarningTexts returns the fragment's warnings, ignoring the error
// budget (exact for error-free fragments, the only ones the engine
// journals).
func (f *Fragment) WarningTexts() []string {
	out := make([]string, len(f.frag.warnings))
	for i, n := range f.frag.warnings {
		out[i] = n.text
	}
	return out
}

// graphForMerge builds an empty graph sized for the fragment set, using
// the same source-volume heuristics as ParseWith.
func graphForMerge(opts Options, frags []*Fragment) *graph.Graph {
	g := graph.New()
	g.SetFoldCase(opts.FoldCase)
	total := 0
	for _, f := range frags {
		total += f.srcLen
	}
	g.ReserveLinks(total / 30)
	g.ReserveNames(total / 75)
	return g
}
