// Command mapstat analyzes connectivity maps: degree distribution,
// strongly connected components, route-length distribution, and the relay
// load on each host — the measurements behind the paper's observations
// that poor map data "tended to understate the connectivity of the
// network, putting more load on co-operative sites".
//
// Usage:
//
//	mapstat [-l localname] [-top n] [-dot out.dot] [-tree] [file ...]
//
// With no file, the map is standard input. Without -l, only the graph
// structure is reported. With -l, routes are computed from that host
// and route statistics are included. With -dot, the graph is written in
// Graphviz format; with -l its tree edges are drawn bold and the run's
// invented back links dotted, and -tree writes the shortest-path tree
// instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pathalias/internal/analyze"
	"pathalias/internal/core"
	"pathalias/internal/dot"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mapstat", flag.ContinueOnError)
	var (
		local  = fs.String("l", "", "local host: also compute and analyze routes")
		topN   = fs.Int("top", 10, "how many busiest relays to list")
		dotOut = fs.String("dot", "", "write Graphviz DOT to this file")
		tree   = fs.Bool("tree", false, "DOT output shows the shortest-path tree only (needs -l)")
		maxDot = fs.Int("dotmax", 500, "maximum nodes in DOT output (0 = unlimited)")
	)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tree && *local == "" {
		fmt.Fprintln(stderr, "mapstat: -tree needs -l: there is no tree without a mapping run")
		return 2
	}

	paths := fs.Args()
	if len(paths) == 0 {
		paths = []string{"-"} // no files: the map is standard input
	}
	inputs, err := core.ReadInputs(paths)
	if err != nil {
		fmt.Fprintf(stderr, "mapstat: %v\n", err)
		return 1
	}
	pres, err := parser.Parse(inputs...)
	if err != nil {
		fmt.Fprintf(stderr, "mapstat: %v\n", err)
		return 1
	}
	for _, w := range pres.Warnings {
		fmt.Fprintf(stderr, "mapstat: %s\n", w)
	}
	g := pres.Graph

	var mres *mapper.Result
	if *local != "" {
		src, ok := g.Lookup(*local)
		if !ok {
			fmt.Fprintf(stderr, "mapstat: local host %q not found\n", *local)
			return 1
		}
		mres, err = mapper.Run(g, src, mapper.DefaultOptions())
		if err != nil {
			fmt.Fprintf(stderr, "mapstat: %v\n", err)
			return 1
		}
	}

	analyze.Report(stdout, g, mres, *topN)

	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			fmt.Fprintf(stderr, "mapstat: %v\n", err)
			return 1
		}
		defer f.Close()
		if *tree {
			err = dot.WriteTree(f, mres)
		} else {
			err = dot.WriteGraph(f, g, mres, dot.Options{MaxNodes: *maxDot, Costs: true})
		}
		if err != nil {
			fmt.Fprintf(stderr, "mapstat: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "mapstat: wrote %s\n", *dotOut)
	}
	return 0
}
