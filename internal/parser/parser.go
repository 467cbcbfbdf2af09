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
// are byte-identical to a serial parse, whatever GOMAXPROCS is.
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
	if len(inputs) == 1 {
		// One input: parallelism comes from splitting the file itself at
		// statement boundaries (split.go).
		m.merge(scanFileParallel(opts, inputs[0]))
	} else {
		// Files scan concurrently, one per P (private declarations are
		// file-scoped, so scans are independent); the merge consumes
		// fragments strictly in input order as they complete.
		frags := make([]*fragment, len(inputs))
		done := make([]chan struct{}, len(inputs))
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
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
	refs     graph.RefCache
	errors   []string
	warnings []string
	pending  []pendingLinkOp
	nodes    []*graph.Node // scratch for network member lists
	stmts    int           // statements applied
}

// merge replays one file's fragment into the graph, honoring the global
// error budget exactly as the sequential parser did (see budget).
func (m *merger) merge(f *fragment) {
	b := budget(len(m.errors))
	if b <= 0 {
		return
	}
	m.refs.Reset() // new file, new private scope
	m.g.BeginFile(f.name)
	var op ReplayOp
	for i := range f.stmts {
		st := &f.stmts[i]
		if st.errs >= b {
			break
		}
		f.spell(st, &op)
		m.apply(&op)
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
func (m *merger) apply(op *ReplayOp) {
	g := m.g
	m.stmts++
	switch op.Kind {
	case ReplayRef:
		m.refs.Ref(g, op.A)
	case ReplayLink:
		from := m.refs.Ref(g, op.A)
		to := m.refs.Dest(g, op.B)
		if op.Dom {
			// Declaring a direct link into a domain is the administrative
			// act of offering entry: it makes the declarer a gateway of the
			// domain (seismo's link to .edu makes seismo the .edu gateway).
			// Named networks are different — their gateways come only from
			// explicit gateway{NET!host} declarations, since the recognition
			// of a network name as a network may postdate this link.
			g.AddGateway(to, from)
		}
		g.AddLink(from, to, op.Cost, op.LinkOp, 0)
	case ReplayNet:
		net := m.refs.Ref(g, op.A)
		m.nodes = m.nodes[:0]
		for _, name := range op.Members {
			m.nodes = append(m.nodes, g.Ref(name))
		}
		g.AddNet(net, m.nodes, op.Cost, op.LinkOp)
	case ReplayAlias:
		g.AddAlias(g.Ref(op.A), g.Ref(op.B))
	case ReplayPrivate:
		m.refs.Reset() // the private declaration rebinds its name
		g.DeclarePrivate(op.A)
	case ReplayDeadHost:
		g.MarkDead(g.Ref(op.A))
	case ReplayDeleteHost:
		g.Delete(g.Ref(op.A))
	case ReplayGatewayed:
		g.MarkGatewayed(g.Ref(op.A))
	case ReplayGateway:
		net := g.Ref(op.A)
		host := g.Ref(op.B)
		g.AddGateway(net, host)
	case ReplayAdjust:
		g.AdjustNode(g.Ref(op.A), op.Cost)
	case ReplayFile:
		// Switch the private-scoping file boundary mid-stream, for
		// concatenated input on stdin.
		m.refs.Reset() // private bindings differ across scopes
		g.BeginFile(op.A)
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
