package parser

// Window rescans: an edited input re-scans only the statements its edit
// touched — the re-lexing of a damaged region only, as in Wagner and
// Graham's incremental parsing — and reuses the rest of the fragment it
// had before.
//
// Every statement start recorded in a fragment (stmt.off) is a point
// where a fresh scanner behaves exactly like the serial one: the last
// token was a Newline, the file-local error count is zero and the
// private scope is the file's own (Rescan only works on error-free
// fragments without a file{} switch, like the chunk concatenation of
// split.go). The window therefore starts at the last old statement start
// at or before the first changed byte — the bytes before it are the same
// in both versions, so it is a statement start of the new source too —
// and scans forward from there. It ends at the first statement start of
// the new source that lies in the unchanged tail and is also a statement
// start of the old source at the same distance from the end: both
// scanners then stand in the same state before the same bytes, so the
// rest scans as it did before. The tail check alone would not do: a
// trailing comma, a backslash-newline, an opened comment or cost
// expression can each move where statements begin, past the edit.
//
// The new fragment is the old prefix, the window's fragment and the old
// suffix, concatenated like split.go's chunks; reused names are
// re-pointed into the new source, so a fragment never keeps a superseded
// source alive. Warnings and pending dead/delete items carry their line
// in their text, so a reused suffix that holds any falls back to a full
// scan when the edit moved lines.

import (
	"math"
	"sort"
	"strings"
	"unsafe"
)

// Window describes what Rescan scanned anew. The old and the new
// fragment agree on statements [0, Lo), and old's statements from OldHi
// on are the new one's from NewHi on; Common looks only between. Bytes
// counts the source bytes scanned, and Whole reports a full scan (for a
// Whole window OldHi and NewHi are the two statement counts).
type Window struct {
	Lo, OldHi, NewHi int
	Bytes            int
	Whole            bool
}

// Rescan returns the fragment of in, which must be an edited version of
// the input old was scanned from (old may be nil), and the window it
// scanned. The fragment equals ScanFragment(opts, in) in every
// statement, member, warning, error and pending item. It falls back to
// ScanFragment where a window would not reproduce one: old or the window
// has errors or a file{} switch, a reused suffix holds warnings or
// pending items whose lines the edit moved, or the change spans enough
// bytes that a parallel full scan is faster.
func Rescan(opts Options, old *Fragment, in Input) (*Fragment, Window) {
	if f, w := rescanWindow(opts, old, in); f != nil {
		return f, w
	}
	f := ScanFragment(opts, in)
	w := Window{NewHi: f.Stmts(), Bytes: len(in.Src), Whole: true}
	if old != nil {
		w.OldHi = old.Stmts()
	}
	return f, w
}

// rescanWindow is Rescan's window path; it returns nil where Rescan
// must scan the whole input.
func rescanWindow(opts Options, old *Fragment, in Input) (*Fragment, Window) {
	if old == nil || old.foldCase != opts.FoldCase || old.frag.name != in.Name ||
		len(old.frag.errors) > 0 || old.frag.sawFile ||
		len(old.frag.src) > math.MaxInt32 || len(in.Src) > math.MaxInt32 {
		return nil, Window{}
	}
	of, src, dst := old.frag, old.frag.src, in.Src
	p := commonPrefix(src, dst)
	d := len(dst) - len(src)
	tail := len(dst) - commonSuffix(src[p:], dst[p:]) // unchanged from here on in dst

	stmtAt := func(off int) int { // first old statement starting at or after off
		return sort.Search(len(of.stmts), func(i int) bool { return int(of.stmts[i].off) >= off })
	}
	lo := 0
	if i := stmtAt(p + 1); i > 0 {
		lo = int(of.stmts[i-1].off)
	}
	if tail-lo >= 2*minChunkBytes {
		return nil, Window{}
	}
	next := stmtAt(tail - d)
	until := func(off int) bool {
		if lo+off < tail {
			return false
		}
		at := lo + off - d // the same byte in the old source
		for next < len(of.stmts) && int(of.stmts[next].off) < at {
			next++
		}
		return next < len(of.stmts) && int(of.stmts[next].off) == at
	}
	wf, n := scanChunkUntil(opts, in.Name, dst[lo:], 1+strings.Count(dst[:lo], "\n"), tail-lo, until)
	if len(wf.errors) > 0 || wf.sawFile {
		return nil, Window{}
	}
	hi := lo + n // the window is dst[lo:hi], and src[lo:hi-d] before
	pre, suf := stmtAt(lo), stmtAt(hi-d)
	wPre, wSuf := noteAt(of.warnings, lo), noteAt(of.warnings, hi-d)
	pPre, pSuf := pendingAt(of.pending, lo), pendingAt(of.pending, hi-d)
	if (wSuf < len(of.warnings) || pSuf < len(of.pending)) &&
		strings.Count(dst[lo:hi], "\n") != strings.Count(src[lo:hi-d], "\n") {
		return nil, Window{}
	}

	// Splice the old prefix, the window and the old suffix as split.go
	// concatenates chunks. Members are stored in statement order, so
	// the prefix's and the suffix's are runs of old's too.
	mSuf := firstMember(of.stmts[suf:], int32(len(of.members)))
	mPre := firstMember(of.stmts[pre:suf], mSuf)
	prefix := &fragment{stmts: of.stmts[:pre], members: of.members[:mPre], warnings: of.warnings[:wPre],
		pending: movePending(of.pending[:pPre], src, dst, 0)}
	suffix := &fragment{stmts: of.stmts[suf:], members: of.members[mSuf:], warnings: of.warnings[wSuf:],
		pending: movePending(of.pending[pSuf:], src, dst, d)}
	out := &fragment{name: in.Name, src: dst, stmts: make([]stmt, 0, pre+len(wf.stmts)+len(suffix.stmts))}
	if n := len(prefix.members) + len(wf.members) + len(suffix.members); n > 0 {
		out.members = make([]name, 0, n)
	}
	appendFragment(out, prefix, 0, 0)
	appendFragment(out, wf, int32(lo), 0)
	appendFragment(out, suffix, int32(d), mSuf)
	return &Fragment{frag: out, foldCase: opts.FoldCase},
		Window{Lo: pre, OldHi: suf, NewHi: pre + len(wf.stmts), Bytes: hi - lo}
}

// firstMember returns where the members of stmts begin in their
// fragment's member array: the first network's mlo, or end if none.
func firstMember(stmts []stmt, end int32) int32 {
	for i := range stmts {
		if stmts[i].op == ReplayNet {
			return stmts[i].mlo
		}
	}
	return end
}

// movePending returns copies of pending items of a fragment of src as
// items of dst, where the same bytes lie shift bytes further on: their
// names, which are strings, are re-pointed into dst, so the new
// fragment keeps no reference to src.
func movePending(pend []pendingLinkOp, src, dst string, shift int) []pendingLinkOp {
	if len(pend) == 0 {
		return nil
	}
	out := make([]pendingLinkOp, len(pend))
	for i, p := range pend {
		p.from, p.to = move(p.from, src, dst, shift), move(p.to, src, dst, shift)
		out[i] = p
	}
	return out
}

// move returns s, a substring of src, as the same bytes of dst, shift
// bytes further on.
func move(s, src, dst string, shift int) string {
	at := int(uintptr(unsafe.Pointer(unsafe.StringData(s))) - uintptr(unsafe.Pointer(unsafe.StringData(src))))
	return dst[at+shift : at+shift+len(s)]
}

// noteAt returns the index of the first note of a statement starting at
// or after off.
func noteAt(ns []note, off int) int {
	return sort.Search(len(ns), func(i int) bool { return int(ns[i].off) >= off })
}

// pendingAt is noteAt for pending items.
func pendingAt(ps []pendingLinkOp, off int) int {
	return sort.Search(len(ps), func(i int) bool { return int(ps[i].off) >= off })
}

// cmpBlock is how many bytes commonPrefix and commonSuffix compare at a
// time before narrowing down to the first differing byte.
const cmpBlock = 1 << 10

// commonPrefix returns the length of the longest common prefix of a and
// b.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i+cmpBlock <= n && a[i:i+cmpBlock] == b[i:i+cmpBlock] {
		i += cmpBlock
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffix returns the length of the longest common suffix of a and
// b.
func commonSuffix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i+cmpBlock <= n && a[len(a)-i-cmpBlock:len(a)-i] == b[len(b)-i-cmpBlock:len(b)-i] {
		i += cmpBlock
	}
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}
