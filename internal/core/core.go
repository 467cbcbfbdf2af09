// Package core runs the three-phase pathalias pipeline: parse the input,
// build the shortest-path tree, and print the routes.
//
// It is the orchestration layer behind both the public pathalias package
// and cmd/pathalias, wiring the parser, mapper, and printer together and
// collecting statistics about each phase.
package core

import (
	"fmt"
	"io"
	"os"
	"time"
	"unsafe"

	"pathalias/internal/graph"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
)

// Config is the one configuration of the parse → map → print pipeline:
// the batch Run and the incremental engine (remap.Options is an alias)
// both take it, so a flag means the same thing in either.
type Config struct {
	// LocalHost is the route source ("If run from unc ..."). It must be
	// declared somewhere in the input.
	LocalHost string
	// Mapper options; zero value means mapper.DefaultOptions().
	Mapper *mapper.Options
	// Printer options.
	Printer printer.Options
	// Avoid lists hosts to penalize (the -s flag): each is adjusted by
	// the dead penalty so routes bypass them when possible.
	Avoid []string
	// FoldCase makes host names case-insensitive (-i). Cost symbols stay
	// case-sensitive.
	FoldCase bool
	// MaxVantages is for the incremental engine alone: it caps how many
	// vantage machines it keeps resident (least-recently-used eviction;
	// the LocalHost vantage is never evicted). 0 means 64. A batch run
	// has one vantage and ignores it.
	MaxVantages int
}

// PhaseTimes records wall-clock time per phase.
type PhaseTimes struct {
	Parse time.Duration
	Map   time.Duration
	Print time.Duration
}

// Report is everything a run produced.
type Report struct {
	Entries     []printer.Entry // in name order under every option (printer.Routes)
	Warnings    []string
	Unreachable []string // names of hosts with no route even via back links

	Graph     *graph.Graph
	MapResult *mapper.Result
	Times     PhaseTimes
	// StmtsReplayed counts the statements the parse merged into the
	// graph — the batch counterpart of the incremental engine's
	// per-generation count.
	StmtsReplayed int
}

// Run executes the pipeline over the map sources, in order. File
// boundaries are semantic (private scoping, duplicate resolution).
func Run(cfg Config, inputs ...parser.Input) (*Report, error) {
	if cfg.LocalHost == "" {
		return nil, fmt.Errorf("core: no local host configured")
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("core: no inputs")
	}

	rep := &Report{}
	start := time.Now()
	pres, err := parser.ParseWith(parser.Options{FoldCase: cfg.FoldCase}, inputs...)
	rep.Times.Parse = time.Since(start)
	if pres != nil {
		rep.Graph = pres.Graph
		rep.Warnings = pres.Warnings
		rep.StmtsReplayed = pres.StmtsReplayed
	}
	if err != nil {
		return rep, err
	}

	local, ok := rep.Graph.Lookup(cfg.LocalHost)
	if !ok {
		return rep, fmt.Errorf("core: local host %q not found in input", rep.Graph.Fold(cfg.LocalHost))
	}
	for _, name := range cfg.Avoid {
		n, ok := rep.Graph.Lookup(name)
		if !ok {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("avoid: unknown host %q", name))
			continue
		}
		rep.Graph.AdjustNode(n, mapper.DefaultDeadPenalty)
	}

	mopts := mapper.DefaultOptions()
	if cfg.Mapper != nil {
		mopts = *cfg.Mapper
	}
	start = time.Now()
	mres, err := mapper.Run(rep.Graph, local, mopts)
	rep.Times.Map = time.Since(start)
	if err != nil {
		return rep, err
	}
	rep.MapResult = mres
	for _, n := range mres.Unreachable {
		rep.Unreachable = append(rep.Unreachable, n.Name)
	}

	start = time.Now()
	rep.Entries = printer.Routes(mres, cfg.Printer)
	rep.Times.Print = time.Since(start)
	return rep, nil
}

// ReadInputs loads the named files as parser inputs; "-" means standard
// input, and no name at all is an error (a command picks its default).
//
// Each source is read into the heap once: the string takes over the
// freshly read bytes without a second copy. Nothing aliases the file
// afterwards, so the scanner's zero-copy substrings — which the
// incremental engine caches across updates — stay valid however the
// file is later rewritten, truncated, or removed.
func ReadInputs(paths []string) ([]parser.Input, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: no input files")
	}
	ins := make([]parser.Input, 0, len(paths))
	for _, p := range paths {
		var (
			src []byte
			err error
		)
		name := p
		if p == "-" {
			name = "<stdin>"
			src, err = io.ReadAll(os.Stdin)
		} else {
			src, err = os.ReadFile(p)
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading %s: %w", name, err)
		}
		ins = append(ins, parser.Input{Name: name, Src: ownString(src)})
	}
	return ins, nil
}

// ownString converts b to a string without copying. The caller must
// never touch b again: the string owns the bytes from here on.
func ownString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// WriteReportStats renders -v statistics for a completed run.
func WriteReportStats(w io.Writer, rep *Report) {
	if rep == nil || rep.Graph == nil {
		return
	}
	gs := rep.Graph.Stats()
	fmt.Fprintf(w, "pathalias: %d nodes (%d hosts, %d nets, %d domains, %d private), %d links (%d alias edges)\n",
		gs.Nodes, gs.Hosts, gs.Nets, gs.Domains, gs.Privates, gs.Links, gs.AliasEdges)
	fmt.Fprintf(w, "pathalias: %d duplicate links folded, %d self links ignored\n",
		gs.DupLinks, gs.SelfLinks)
	fmt.Fprintf(w, "pathalias: hash table: %d entries, size %d, %d rehashes, %.2f probes/access\n",
		gs.HashStats.Len, gs.HashStats.Size, gs.HashStats.Rehashes, gs.HashStats.ProbesPerAccess())
	if mr := rep.MapResult; mr != nil {
		fmt.Fprintf(w, "pathalias: mapped %d, unreachable %d, back-linked %d, mixed-syntax penalized %d\n",
			mr.Reached, len(rep.Unreachable), mr.BackLinked, mr.Penalized)
		fmt.Fprintf(w, "pathalias: %d extractions, %d relaxations, queue high-water %d\n",
			mr.Extractions, mr.Relaxations, mr.MaxQueue)
	}
	fmt.Fprintf(w, "pathalias: stmts_replayed=%d\n", rep.StmtsReplayed)
	fmt.Fprintf(w, "pathalias: parse %v, map %v, print %v\n",
		rep.Times.Parse.Round(time.Microsecond),
		rep.Times.Map.Round(time.Microsecond),
		rep.Times.Print.Round(time.Microsecond))
}
