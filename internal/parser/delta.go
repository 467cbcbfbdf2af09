package parser

// Exported fragment API for the incremental re-map engine
// (internal/remap). Every parse scans its inputs into fragments and
// replays them: ParseWith merges them into a fresh graph in one shot,
// and the engine keeps the two phases apart so it can cache the
// expensive one. A Fragment is one scanned file — the flat replay log of
// fragment.go — together with the source it was scanned from, so an
// engine can tell an unchanged input by comparing bytes, replay cached
// fragments for those, and re-scan only the changed statements of the
// rest (Rescan). The engine journals its own replay of error-free
// fragments through OpsRange, which spells statements out as the same
// ReplayOps the merger applies; an input set with syntax errors it
// rejects with the errors a parse would report (Errors).

import "slices"

// Fragment is one scanned input, reusable across replays. It is
// immutable after ScanFragment or Rescan returns and safe to replay any
// number of times, into any number of graphs. It keeps no source but its
// own alive.
type Fragment struct {
	frag     *fragment
	foldCase bool
}

// Name returns the input name the fragment was scanned from.
func (f *Fragment) Name() string { return f.frag.name }

// Src returns the source the fragment was scanned from.
func (f *Fragment) Src() string { return f.frag.src }

// Stmts returns the number of replayable operations in the fragment.
func (f *Fragment) Stmts() int { return len(f.frag.stmts) }

// ScanFragment scans one input into a reusable fragment (phase one of the
// parse, file-local and independent of every other input). Large inputs
// scan in statement-boundary chunks, one goroutine per P (split.go); the
// fragment is identical either way.
func ScanFragment(opts Options, in Input) *Fragment {
	return &Fragment{frag: scanFileParallel(opts, in), foldCase: opts.FoldCase}
}

// Errors returns the syntax errors a parse of the fragments' inputs, in
// order, reports: the Errors of the *ParseError that ParseWith returns
// for the same inputs, or nil when every fragment scanned clean.
func Errors(frags []*Fragment) []string {
	var errs []string
	for _, f := range frags {
		errs = appendErrors(errs, f.frag)
	}
	return errs
}

// Common returns the lengths of the longest common statement prefix and
// suffix of old's and f's replay logs, looking only inside the window w
// that Rescan reported when it made f from old: outside it the two logs
// agree by construction. Inside, statements compare by content: names
// and net members by their text, wherever in the two sources they sit.
// The two never overlap: prefix+suffix is at most the shorter log's
// length. A journaling engine replays only f's statements between them
// and undoes only old's, instead of undoing and redoing the whole file;
// an append is the case "old's middle and the suffix are empty". For a
// Whole window this is the common prefix and suffix of the whole logs.
//
// old and f must be error-free scans of one input under one case
// folding (the error budget couples statements). The caller owns the
// scope rules: a private or file{} statement at or after the prefix
// changes how the other statements resolve names (see LastPrivate and
// SwitchesFile).
func (f *Fragment) Common(old *Fragment, w Window) (prefix, suffix int) {
	a, b := old.frag, f.frag
	n := min(w.OldHi, w.NewHi) - w.Lo
	p, s := 0, 0
	for p < n && sameStmt(a, b, &a.stmts[w.Lo+p], &b.stmts[w.Lo+p]) {
		p++
	}
	for s < n-p && sameStmt(a, b, &a.stmts[w.OldHi-1-s], &b.stmts[w.NewHi-1-s]) {
		s++
	}
	return w.Lo + p, len(a.stmts) - w.OldHi + s
}

// sameStmt reports whether statement x of a and y of b replay the same
// operation, wherever in their sources they sit.
func sameStmt(a, b *fragment, x, y *stmt) bool {
	if x.op != y.op || x.dom != y.dom || x.linkOp != y.linkOp || x.errs != y.errs || x.cost != y.cost ||
		a.str(x, x.a) != b.str(y, y.a) || a.str(x, x.b) != b.str(y, y.b) || x.mhi-x.mlo != y.mhi-y.mlo {
		return false
	}
	for i := range x.mhi - x.mlo {
		if a.str(x, a.members[x.mlo+i]) != b.str(y, b.members[y.mlo+i]) {
			return false
		}
	}
	return true
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
		if f.frag.stmts[i].op == ReplayPrivate {
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
// OpsRange exposes the budget-free view, which equals a sequential
// parse only for error-free fragments: the MaxErrors truncation of a
// fragment with errors is not applied. The engine journals only
// error-free input sets.
func (f *Fragment) OpsRange(lo, hi int, yield func(*ReplayOp) bool) {
	var op ReplayOp
	for i := lo; i < hi; i++ {
		f.frag.spell(&f.frag.stmts[i], &op)
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
