// Package parser builds the connectivity graph from pathalias map text.
//
// The original used yacc with syntax-directed translation ("We use
// syntax-directed translation to support a rich syntax with edge weights
// and labels, aliases, networks, and accommodation of host name
// collisions"). This is the equivalent hand-written recursive-descent
// parser over the hand-built scanner of package lexer. The grammar is
// specified in DESIGN.md §2:
//
//	statement := hostdecl | netdecl | aliasdecl | command
//	hostdecl  := host link {"," link}
//	link      := host [netchar] [(cost)] | netchar host [(cost)]
//	netdecl   := name "=" [netchar] "{" member {"," member} "}" [(cost)]
//	aliasdecl := host "=" host {"," host}
//	command   := ("private"|"dead"|"delete"|"adjust"|"file"|
//	              "gatewayed"|"gateway") "{" items "}"
//
// Command words are keywords only at statement start when followed by '{',
// so hosts may still be named "private" or "dead".
//
// File boundaries are semantic: private declarations scope to the end of
// their file, and duplicate links across files fold into one edge with the
// cheaper cost (handled by graph.AddLink).
//
// Parsing is two-phase (DESIGN.md "Hot path"). Phase one — scanning,
// syntax analysis, and cost evaluation, the bulk of the work — is
// file-local, so files scan concurrently, each producing a fragment: a
// flat replay log of graph operations (fragment.go). Phase two merges the
// fragments into one graph strictly in input order, reproducing the
// sequential parse operation-for-operation — node creation order,
// duplicate-link folding, private scoping, error budgets, and diagnostics
// are byte-identical to a serial parse, whatever the worker count.
package parser

import (
	"fmt"
	"runtime"
	"strings"

	"pathalias/internal/graph"
)

// Input is one named map source. The name matters: private declarations
// scope to the file that made them.
type Input struct {
	Name string
	Src  string
}

// MaxErrors is how many syntax errors the parser accumulates before giving
// up on an input.
const MaxErrors = 20

// A ParseError aggregates the syntax errors found in the inputs.
type ParseError struct {
	Errors []string
}

func (e *ParseError) Error() string {
	switch len(e.Errors) {
	case 0:
		return "parser: unspecified error"
	case 1:
		return e.Errors[0]
	default:
		return fmt.Sprintf("%s (and %d more errors)", e.Errors[0], len(e.Errors)-1)
	}
}

// Result carries the parsed graph plus diagnostics that are not fatal.
type Result struct {
	Graph    *graph.Graph
	Warnings []string
	// StmtsReplayed counts the statements merged into the graph: every
	// statement once, since a batch parse replays each input whole.
	StmtsReplayed int
}

// Options adjust parsing behavior.
type Options struct {
	// FoldCase makes host names case-insensitive (the -i flag). Cost
	// symbols remain case-sensitive; only names fold.
	FoldCase bool

	// Workers caps how many input files are scanned concurrently.
	// 0 means one worker per CPU; 1 forces the serial path. Output is
	// identical either way.
	Workers int
}

// Parse parses the inputs in order into one graph. Syntax errors are
// recovered by skipping to the next statement; if any occurred, the error
// is a *ParseError listing them, and the returned Result still holds
// whatever parsed cleanly.
func Parse(inputs ...Input) (*Result, error) {
	return ParseWith(Options{}, inputs...)
}

// ParseWith parses with explicit options.
func ParseWith(opts Options, inputs ...Input) (*Result, error) {
	g := graph.New()
	g.SetFoldCase(opts.FoldCase)
	total := 0
	for _, in := range inputs {
		total += len(in.Src)
	}
	// Real map files average ~30 bytes per link declaration and ~75 per
	// distinct name; the hints spare the link index and name table their
	// incremental growth. Neither is required for correctness.
	g.ReserveLinks(total / 30)
	g.ReserveNames(total / 75)
	m := &merger{g: g}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case workers <= 1:
		// Serial: stream each file straight into the graph — no replay
		// log, no buffering. This is the sequential parse, verbatim.
		for _, in := range inputs {
			if len(m.errors) >= MaxErrors {
				break
			}
			scanStream(opts, in, m)
		}
	case len(inputs) == 1:
		// One input: parallelism comes from splitting the file itself at
		// statement boundaries (split.go). Small files stream serially.
		if in := inputs[0]; len(in.Src) < 2*minChunkBytes {
			scanStream(opts, in, m)
		} else {
			m.merge(scanFileParallel(opts, in, workers))
		}
	default:
		// Parallel: files scan concurrently (private declarations are
		// file-scoped, so scans are independent); the merge consumes
		// fragments strictly in input order as they complete.
		frags := make([]*fragment, len(inputs))
		done := make([]chan struct{}, len(inputs))
		sem := make(chan struct{}, workers)
		for i := range inputs {
			done[i] = make(chan struct{})
			go func(i int) {
				defer close(done[i])
				sem <- struct{}{}
				defer func() { <-sem }()
				frags[i] = scanFile(opts, inputs[i])
			}(i)
		}
		for i := range inputs {
			<-done[i]
			// merge is a no-op once the error budget is exhausted; keep
			// receiving so every scanner finishes before we return.
			m.merge(frags[i])
			frags[i] = nil
		}
	}

	m.finish()
	res := &Result{Graph: g, Warnings: m.warnings, StmtsReplayed: m.stmts}
	if len(m.errors) > 0 {
		return res, &ParseError{Errors: m.errors}
	}
	return res, nil
}

// ParseString parses a single in-memory map, for tests and examples.
func ParseString(name, src string) (*Result, error) {
	return Parse(Input{Name: name, Src: src})
}

// merger applies fragments to the graph in input order (phase two).
type merger struct {
	g        *graph.Graph
	errors   []string
	warnings []string
	pending  []pendingLinkOp
	nodes    []*graph.Node // scratch for network member lists
	stmts    int           // statements applied

	// One-entry reference cache: consecutive operations overwhelmingly
	// name the same host (a declaration line emits one opRef plus one
	// opLink per link, all with the same left-hand name), and a cache hit
	// skips a hash probe. Scope changes invalidate it.
	lastName string
	lastNode *graph.Node

	// Direct-mapped cache for link destinations: real maps concentrate
	// links on a small set of hubs (the paper's backbone), so a tiny
	// cache absorbs a large share of destination resolutions. Cleared on
	// any scope change, like lastName.
	dests [256]struct {
		name string
		node *graph.Node
	}
}

// destSlot is a cheap direct-mapped hash over a host name.
func destSlot(name string) int {
	n := len(name)
	return (n*131 + int(name[0])*7 + int(name[n-1])) & 255
}

// refDest resolves a link-destination name with the direct-mapped cache.
func (m *merger) refDest(name string) *graph.Node {
	s := &m.dests[destSlot(name)]
	if s.name == name && s.node != nil {
		return s.node
	}
	n := m.g.Ref(name)
	s.name, s.node = name, n
	return n
}

// clearRefCache drops both reference caches; called whenever the private
// scope changes, since bindings may differ across scopes.
func (m *merger) clearRefCache() {
	m.lastNode = nil
	clear(m.dests[:])
}

// ref resolves a name like graph.Ref, memoizing the last resolution.
func (m *merger) ref(name string) *graph.Node {
	if name == m.lastName && m.lastNode != nil {
		return m.lastNode
	}
	n := m.g.Ref(name)
	m.lastName, m.lastNode = name, n
	return n
}

// merge replays one file's fragment into the graph, honoring the global
// error budget exactly as the sequential parser did (see budget).
func (m *merger) merge(f *fragment) {
	b := budget(len(m.errors))
	if b <= 0 {
		return
	}
	m.clearRefCache()
	m.g.BeginFile(f.name)
	var a action
	for i := range f.stmts {
		st := &f.stmts[i]
		if st.errs >= b {
			break
		}
		f.action(st, &a)
		m.apply(&a)
	}
	m.errors = appendErrors(m.errors, f)
	for _, n := range f.warnings {
		if n.errs >= b {
			break
		}
		m.warnings = append(m.warnings, n.text)
	}
	for _, p := range f.pending {
		if p.errs >= b {
			break
		}
		m.pending = append(m.pending, p)
	}
}

// budget is what remains of the MaxErrors budget for a file after nerrs
// errors in the files before it. A sequential parse skips the file once
// nothing remains, and within it drops every statement that began after
// the budget ran out — those tagged errs >= budget — with its
// diagnostics and pending items. A statement that began within the
// budget keeps all of its errors, so the total may pass MaxErrors.
func budget(nerrs int) int32 { return int32(MaxErrors - nerrs) }

// appendErrors appends the errors a sequential parse reports for f to
// errs, which holds those reported for the files before it.
func appendErrors(errs []string, f *fragment) []string {
	b := budget(len(errs))
	for _, n := range f.errors {
		if n.errs >= b {
			break
		}
		errs = append(errs, n.text)
	}
	return errs
}

// apply performs one replay-log operation. The graph calls and their
// order mirror the sequential parser's actions exactly.
func (m *merger) apply(st *action) {
	g := m.g
	m.stmts++
	switch st.op {
	case opRef:
		m.ref(st.a)
	case opLink:
		from := m.ref(st.a)
		to := m.refDest(st.b)
		if st.dom {
			// Declaring a direct link into a domain is the administrative
			// act of offering entry: it makes the declarer a gateway of the
			// domain (seismo's link to .edu makes seismo the .edu gateway).
			// Named networks are different — their gateways come only from
			// explicit gateway{NET!host} declarations, since the recognition
			// of a network name as a network may postdate this link.
			g.AddGateway(to, from)
		}
		g.AddLink(from, to, st.cost, st.linkOp, 0)
	case opNet:
		net := m.ref(st.a)
		m.nodes = m.nodes[:0]
		for _, name := range st.members {
			m.nodes = append(m.nodes, g.Ref(name))
		}
		g.AddNet(net, m.nodes, st.cost, st.linkOp)
	case opAlias:
		a := g.Ref(st.a)
		b := g.Ref(st.b)
		g.AddAlias(a, b)
	case opPrivate:
		m.clearRefCache() // the private declaration rebinds its name
		g.DeclarePrivate(st.a)
	case opDeadHost:
		g.MarkDead(g.Ref(st.a))
	case opDeleteHost:
		g.Delete(g.Ref(st.a))
	case opGatewayed:
		g.MarkGatewayed(g.Ref(st.a))
	case opGateway:
		net := g.Ref(st.a)
		host := g.Ref(st.b)
		g.AddGateway(net, host)
	case opAdjust:
		g.AdjustNode(g.Ref(st.a), st.cost)
	case opFile:
		// Switch the private-scoping file boundary mid-stream, for
		// concatenated input on stdin.
		m.clearRefCache() // private bindings differ across scopes
		g.BeginFile(st.a)
	}
}

// finish applies deferred link operations now that all links exist.
func (m *merger) finish() {
	for _, op := range m.pending {
		m.g.BeginFile(op.file) // resolve names in the declaring file's scope
		from := m.g.Ref(op.from)
		to := m.g.Ref(op.to)
		var ok bool
		if op.deadNot {
			ok = m.g.DeleteLink(from, to)
		} else {
			ok = m.g.MarkDeadLink(from, to)
		}
		if !ok {
			verb := "dead"
			if op.deadNot {
				verb = "delete"
			}
			m.warnings = append(m.warnings,
				fmt.Sprintf("%s: %s{%s!%s}: no such link", op.pos, verb, op.from, op.to))
		}
	}
}

// FormatWarnings renders warnings one per line for stderr output.
func FormatWarnings(ws []string) string {
	if len(ws) == 0 {
		return ""
	}
	return "pathalias: " + strings.Join(ws, "\npathalias: ") + "\n"
}
