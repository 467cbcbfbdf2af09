package parser

// Phase one of the parse: a file-local scanner that turns one map source
// into a fragment — a flat replay log of graph operations plus tagged
// diagnostics. A fragment is the only thing a scan produces: the merger
// replays fragments in input order (ParseWith), and the re-map engine
// replays and caches them (delta.go). Fragments contain no graph state,
// so any number of files can scan concurrently.
//
// The scanner transliterates the sequential recursive-descent parser
// statement for statement. Everything observable — which names get
// referenced (and in what order, since that fixes node IDs), which
// warnings fire at which token positions, how many statements parse before
// the error budget runs out — is recorded in the fragment so the merge
// reproduces a serial parse exactly.

import (
	"fmt"
	"strings"
	"unsafe"

	"pathalias/internal/cost"
	"pathalias/internal/graph"
	"pathalias/internal/lexer"
)

// foldName normalizes a name the same way graph.Graph does under FoldCase.
func foldName(s string) string { return strings.ToLower(s) }

// ReplayKind tags one graph operation of a fragment's replay log.
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

// ReplayOp is one graph operation with its names spelled out: what the
// scanner emits, the merger applies and the re-map engine journals.
// Dom precomputes "B names a domain" (ReplayLink), so neither consumer
// need consult node flags.
type ReplayOp struct {
	Kind    ReplayKind
	A, B    string
	Cost    cost.Cost
	LinkOp  graph.Op
	Dom     bool     // ReplayLink: B names a domain (gateway side effect)
	Members []string // ReplayNet: member names (reused by the next operation)
}

// name is a name token of a fragment's source: n bytes from at bytes
// past the start of the statement that holds it. Fragments keep offsets,
// not strings, so their logs hold no pointers: splicing one (Rescan,
// split.go's chunks) copies flat memory, and moving a statement in the
// source changes its offset alone.
type name struct{ at, n int32 }

// stmt is one entry of the replay log, a ReplayOp as a fragment stores
// it. errs is the file-local error count when the enclosing statement
// began; the merger uses it to reproduce the sequential parser's
// MaxErrors cutoff across files. off is the byte offset of the source
// statement that emitted it — the first byte after the Newline token
// ending the statement before — where a fresh scanner behaves exactly
// like the serial one; Rescan restarts there.
type stmt struct {
	op       ReplayKind
	dom      bool
	linkOp   graph.Op
	errs     int32
	off      int32
	a, b     name
	cost     cost.Cost
	mlo, mhi int32 // ReplayNet: member range in fragment.members
}

// note is a diagnostic tagged with the same budget counter and
// statement offset as stmt.errs and stmt.off.
type note struct {
	text string
	errs int32
	off  int32
}

// pendingLinkOp is a dead/delete on a link that may not exist yet; they
// apply after all input is read.
type pendingLinkOp struct {
	from, to string
	file     string // scope for private resolution
	pos      string
	deadNot  bool // true = delete, false = dead
	errs     int32
	off      int32
}

// fragment is one scanned file, ready to merge.
type fragment struct {
	name     string
	src      string // the scanned source, which stmts and members name bytes of
	stmts    []stmt
	members  []name // relative to the ReplayNet statement holding them
	errors   []note
	warnings []note
	pending  []pendingLinkOp
	sawFile  bool // a file{} scope switch appeared (chunk-merge guard)
}

// str returns the name n of statement st.
func (f *fragment) str(st *stmt, n name) string {
	at := int(st.off + n.at)
	return f.src[at : at+int(n.n)]
}

// spell spells statement st out into op, reusing op's member slice.
// It sets field by field: a composite literal would build the whole
// operation aside and block-copy it, once per statement.
func (f *fragment) spell(st *stmt, op *ReplayOp) {
	op.Kind, op.Dom, op.LinkOp, op.Cost = st.op, st.dom, st.linkOp, st.cost
	op.A, op.B = f.str(st, st.a), f.str(st, st.b)
	op.Members = op.Members[:0]
	for _, m := range f.members[st.mlo:st.mhi] {
		op.Members = append(op.Members, f.str(st, m))
	}
}

// fileScanner drives the lexer over one file (or one piece of one),
// recording every operation and diagnostic in frag for the merger or
// the re-map engine to replay.
type fileScanner struct {
	frag     *fragment
	opts     Options
	sc       *lexer.Scanner
	src      string // what sc scans
	tok      lexer.Token
	curFile  string   // active private scope, switched by file{} commands
	stmtErrs int32    // error count at the current statement's start
	members  []string // the network declaration's members, being scanned

	// bound is the offset just past the last Newline token consumed: at
	// the top of the statement loop, where the current statement began.
	// stmtOff holds it for the statement being scanned.
	bound, stmtOff int32
	// until, if set, is asked at every statement start whether to stop
	// there (Rescan's window end); stopped records that it said yes.
	until   func(off int) bool
	stopped bool
}

// scanFile scans one input into a fragment (phase one).
func scanFile(opts Options, in Input) *fragment {
	// Preallocate the replay log from the source size. Real map files run
	// one statement per ~15-25 bytes; overshooting slightly beats paying
	// the append-growth churn on a multi-hundred-thousand-entry log.
	f := &fragment{name: in.Name, src: in.Src, stmts: make([]stmt, 0, len(in.Src)/14+16)}
	s := &fileScanner{
		frag:    f,
		opts:    opts,
		sc:      lexer.NewScannerString(in.Name, in.Src),
		src:     in.Src,
		curFile: in.Name,
	}
	s.run()
	return f
}

func (s *fileScanner) run() {
	s.next()
	for s.tok.Kind != lexer.EOF && len(s.frag.errors) < MaxErrors {
		if s.until != nil && s.until(int(s.bound)) {
			s.stopped = true
			return
		}
		s.stmtErrs = int32(len(s.frag.errors))
		s.stmtOff = s.bound
		switch s.tok.Kind {
		case lexer.Newline:
			s.next() // empty statement
		case lexer.Name:
			s.scanStatement()
		default:
			s.errorf("statement must begin with a name, got %s", s.tok)
			s.skipStatement()
		}
	}
}

func (s *fileScanner) emit(op *ReplayOp) {
	f := s.frag
	st := stmt{op: op.Kind, dom: op.Dom, linkOp: op.LinkOp, errs: s.stmtErrs, off: s.stmtOff,
		a: s.name(op.A), b: s.name(op.B), cost: op.Cost}
	if op.Kind == ReplayNet {
		st.mlo = int32(len(f.members))
		for _, m := range op.Members {
			f.members = append(f.members, s.name(m))
		}
		st.mhi = int32(len(f.members))
	}
	f.stmts = append(f.stmts, st)
}

// name locates t, the text of a name token (a substring of the source,
// as every token text of the zero-copy scanner is), relative to the
// current statement's start.
func (s *fileScanner) name(t string) name {
	if t == "" {
		return name{}
	}
	at := uintptr(unsafe.Pointer(unsafe.StringData(t))) - uintptr(unsafe.Pointer(unsafe.StringData(s.src)))
	return name{at: int32(at) - s.stmtOff, n: int32(len(t))}
}

func (s *fileScanner) errorf(format string, args ...any) {
	text := fmt.Sprintf("%s: %s", s.tok.Pos(), fmt.Sprintf(format, args...))
	s.frag.errors = append(s.frag.errors, note{text: text, errs: s.stmtErrs, off: s.stmtOff})
}

func (s *fileScanner) warnf(format string, args ...any) {
	text := fmt.Sprintf("%s: %s", s.tok.Pos(), fmt.Sprintf(format, args...))
	s.frag.warnings = append(s.frag.warnings, note{text: text, errs: s.stmtErrs, off: s.stmtOff})
}

// addPending records a deferred dead/delete link item.
func (s *fileScanner) addPending(p pendingLinkOp) {
	p.errs, p.off = s.stmtErrs, s.stmtOff
	s.frag.pending = append(s.frag.pending, p)
}

// foldEq reports whether two names resolve to the same node at this point
// of the file — i.e. they are equal under the case-folding policy. (Two
// references with equal folded text always land on the same node, private
// or global; unequal text never does.)
func (s *fileScanner) foldEq(a, b string) bool {
	if a == b {
		return true
	}
	if !s.opts.FoldCase {
		return false
	}
	return foldName(a) == foldName(b)
}

// next advances to the next token; scan errors are recorded and surface as
// a synthetic EOF so scanning stops cleanly, carrying the pre-error
// position as the sequential parser did.
func (s *fileScanner) next() {
	if s.tok.Kind == lexer.Newline {
		s.bound = int32(s.sc.Offset())
	}
	file, line, col := s.tok.File, s.tok.Line, s.tok.Col
	if err := s.sc.NextTok(&s.tok); err != nil {
		s.frag.errors = append(s.frag.errors, note{text: err.Error(), errs: s.stmtErrs, off: s.stmtOff})
		s.tok = lexer.Token{Kind: lexer.EOF, File: file, Line: line, Col: col}
	}
}

// skipStatement consumes tokens through the next Newline, for error
// recovery.
func (s *fileScanner) skipStatement() {
	for s.tok.Kind != lexer.Newline && s.tok.Kind != lexer.EOF {
		s.next()
	}
}

// commandWords maps keyword text to handler dispatch. Recognized only at
// statement start when the following token is '{'.
var commandWords = map[string]bool{
	"private":   true,
	"dead":      true,
	"delete":    true,
	"adjust":    true,
	"file":      true,
	"gatewayed": true,
	"gateway":   true,
}

func (s *fileScanner) scanStatement() {
	name := s.tok.Text
	s.next()

	if commandWords[name] && s.tok.Kind == lexer.LBrace {
		s.scanCommand(name)
		return
	}

	switch s.tok.Kind {
	case lexer.Equals:
		s.next()
		s.scanEqualsRest(name)
	case lexer.Name, lexer.NetChar:
		s.scanHostDecl(name)
	case lexer.Newline:
		// A bare name declares the host with no links; harmless and
		// present in real map data.
		s.emit(&ReplayOp{Kind: ReplayRef, A: name})
		s.next()
	default:
		s.errorf("expected links, '=', or end of statement after %q, got %s", name, s.tok)
		s.skipStatement()
		s.expectNewline()
	}
}

// scanEqualsRest handles both network declarations and alias lists after
// "name = ".
func (s *fileScanner) scanEqualsRest(name string) {
	switch s.tok.Kind {
	case lexer.LBrace:
		s.scanNetDecl(name, graph.DefaultOp)
	case lexer.NetChar:
		op := graph.OpFor(s.tok.Text[0])
		s.next()
		if s.tok.Kind != lexer.LBrace {
			s.errorf("expected '{' after network routing character, got %s", s.tok)
			s.skipStatement()
			s.expectNewline()
			return
		}
		s.scanNetDecl(name, op)
	case lexer.Name:
		s.scanAliasDecl(name)
	default:
		s.errorf("expected '{', routing character, or alias name after '=', got %s", s.tok)
		s.skipStatement()
		s.expectNewline()
	}
}

// scanHostDecl scans "host link, link, ...".
func (s *fileScanner) scanHostDecl(name string) {
	s.emit(&ReplayOp{Kind: ReplayRef, A: name}) // the declaring host is created first
	for {
		if !s.scanLink(name) {
			s.skipStatement()
			break
		}
		if s.tok.Kind != lexer.Comma {
			break
		}
		s.next()
	}
	s.expectNewline()
}

// scanLink scans one link: host[netchar][(cost)] or netchar host[(cost)].
// It reports whether scanning can continue within the statement.
func (s *fileScanner) scanLink(from string) bool {
	op := graph.DefaultOp
	explicitPrefix := false

	if s.tok.Kind == lexer.NetChar {
		op = graph.OpFor(s.tok.Text[0])
		explicitPrefix = true
		s.next()
	}
	if s.tok.Kind != lexer.Name {
		s.errorf("expected destination host name, got %s", s.tok)
		return false
	}
	toName := s.tok.Text
	s.next()

	if s.tok.Kind == lexer.NetChar {
		if explicitPrefix {
			s.errorf("routing character on both sides of %q", toName)
			return false
		}
		// Suffix operator: host on the left (b! form). The direction is
		// positional — the host name was written left of the operator —
		// regardless of which character it is.
		op = graph.Op{Char: s.tok.Text[0], Dir: graph.DirLeft}
		s.next()
	}

	linkCost := cost.DefaultCost
	if s.tok.Kind == lexer.CostText {
		c, err := cost.Eval(s.tok.Text)
		if err != nil {
			s.errorf("bad cost for link to %q: %v", toName, err)
			return false
		}
		linkCost = c
		s.next()
	}

	if s.foldEq(toName, from) {
		s.warnf("ignoring self link %q", toName)
		return true
	}
	s.emit(&ReplayOp{Kind: ReplayLink, A: from, B: toName, Cost: linkCost, LinkOp: op,
		Dom: toName[0] == '.'})
	return true
}

// scanNetDecl scans "{member, ...}[(cost)]" after "name = [netchar]".
func (s *fileScanner) scanNetDecl(name string, op graph.Op) {
	s.next() // consume '{'
	s.members = s.members[:0]
	for {
		if s.tok.Kind != lexer.Name {
			s.errorf("expected network member name, got %s", s.tok)
			s.skipStatement()
			s.expectNewline()
			return
		}
		s.members = append(s.members, s.tok.Text)
		s.next()
		if s.tok.Kind == lexer.Comma {
			s.next()
			continue
		}
		break
	}
	if s.tok.Kind != lexer.RBrace {
		s.errorf("expected '}' to close network %q, got %s", name, s.tok)
		s.skipStatement()
		s.expectNewline()
		return
	}
	s.next()

	netCost := cost.DefaultCost
	if s.tok.Kind == lexer.CostText {
		c, err := cost.Eval(s.tok.Text)
		if err != nil {
			s.errorf("bad cost for network %q: %v", name, err)
			s.skipStatement()
			s.expectNewline()
			return
		}
		netCost = c
		s.next()
	}

	s.emit(&ReplayOp{Kind: ReplayNet, A: name, Cost: netCost, LinkOp: op, Members: s.members})
	s.expectNewline()
}

// scanAliasDecl scans "host = alias, alias, ...".
func (s *fileScanner) scanAliasDecl(name string) {
	s.emit(&ReplayOp{Kind: ReplayRef, A: name}) // the primary is created first
	for {
		if s.tok.Kind != lexer.Name {
			s.errorf("expected alias name, got %s", s.tok)
			s.skipStatement()
			break
		}
		alias := s.tok.Text
		if s.foldEq(alias, name) {
			s.warnf("ignoring self alias %q", alias)
		} else {
			s.emit(&ReplayOp{Kind: ReplayAlias, A: name, B: alias})
		}
		s.next()
		if s.tok.Kind == lexer.Comma {
			s.next()
			continue
		}
		break
	}
	s.expectNewline()
}

// scanCommand scans "keyword { items }".
func (s *fileScanner) scanCommand(word string) {
	s.next() // consume '{'
	for {
		if s.tok.Kind != lexer.Name {
			s.errorf("expected name in %s{...}, got %s", word, s.tok)
			s.skipStatement()
			s.expectNewline()
			return
		}
		if !s.scanCommandItem(word) {
			s.skipStatement()
			s.expectNewline()
			return
		}
		if s.tok.Kind == lexer.Comma {
			s.next()
			continue
		}
		break
	}
	if s.tok.Kind != lexer.RBrace {
		s.errorf("expected '}' to close %s{...}, got %s", word, s.tok)
		s.skipStatement()
	} else {
		s.next()
	}
	s.expectNewline()
}

// scanCommandItem handles one item inside a command's braces. The item
// forms are: name, name!name (a link), name(expr) for adjust.
func (s *fileScanner) scanCommandItem(word string) bool {
	first := s.tok.Text
	pos := s.tok.Pos()
	s.next()

	// Link form: a!b (any netchar separates, '!' conventional).
	if s.tok.Kind == lexer.NetChar {
		s.next()
		if s.tok.Kind != lexer.Name {
			s.errorf("expected host after link operator in %s{...}", word)
			return false
		}
		second := s.tok.Text
		s.next()
		switch word {
		case "dead":
			s.addPending(pendingLinkOp{
				from: first, to: second, file: s.curFile, pos: pos, deadNot: false})
		case "delete":
			s.addPending(pendingLinkOp{
				from: first, to: second, file: s.curFile, pos: pos, deadNot: true})
		case "gateway":
			s.emit(&ReplayOp{Kind: ReplayGateway, A: first, B: second})
		default:
			s.errorf("%s{...} does not accept link items", word)
			return false
		}
		return true
	}

	// Adjust form: name(expr).
	if s.tok.Kind == lexer.CostText {
		if word != "adjust" {
			s.errorf("%s{...} does not accept cost items", word)
			return false
		}
		delta, err := cost.EvalSigned(s.tok.Text)
		if err != nil {
			s.errorf("bad adjustment for %q: %v", first, err)
			return false
		}
		s.next()
		s.emit(&ReplayOp{Kind: ReplayAdjust, A: first, Cost: delta})
		return true
	}

	// Bare name form.
	switch word {
	case "private":
		s.emit(&ReplayOp{Kind: ReplayPrivate, A: first})
	case "dead":
		s.emit(&ReplayOp{Kind: ReplayDeadHost, A: first})
	case "delete":
		s.emit(&ReplayOp{Kind: ReplayDeleteHost, A: first})
	case "gatewayed":
		s.emit(&ReplayOp{Kind: ReplayGatewayed, A: first})
	case "adjust":
		s.errorf("adjust item %q needs a (cost) adjustment", first)
		return false
	case "gateway":
		s.errorf("gateway item %q must be net!host", first)
		return false
	case "file":
		// Switch the private-scoping file boundary mid-stream, for
		// concatenated input on stdin. The scanner tracks the scope too,
		// so pending dead/delete items resolve in the right file.
		s.emit(&ReplayOp{Kind: ReplayFile, A: first})
		s.curFile = first
		if s.frag != nil {
			s.frag.sawFile = true
		}
	}
	return true
}

// expectNewline consumes the statement terminator, reporting anything else.
func (s *fileScanner) expectNewline() {
	switch s.tok.Kind {
	case lexer.Newline:
		s.next()
	case lexer.EOF:
	default:
		s.errorf("unexpected %s at end of statement", s.tok)
		s.skipStatement()
		if s.tok.Kind == lexer.Newline {
			s.next()
		}
	}
}
