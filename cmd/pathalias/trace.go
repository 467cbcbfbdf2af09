package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"pathalias/internal/core"
	"pathalias/internal/graph"
)

// traceHost reports everything known about one host after a run — the C
// tool's -t debugging aid: declared attributes, adjacency in both
// directions, mapping state, and the full path from the local host. The
// run's invented back links follow each node's declared links, and links
// on the winning paths are marked "tree".
func traceHost(w io.Writer, rep *core.Report, name string) {
	g := rep.Graph
	res := rep.MapResult
	n, ok := g.Lookup(name)
	if !ok {
		fmt.Fprintf(w, "pathalias: trace: no host %q\n", name)
		return
	}
	fmt.Fprintf(w, "trace: %s (id %d, file %q)\n", n, n.ID, n.File)
	if n.Adjust != 0 {
		fmt.Fprintf(w, "trace:   adjust %v\n", n.Adjust)
	}
	if gws := n.Gateways(); len(gws) > 0 {
		var names []string
		for _, gw := range gws {
			names = append(names, gw.Name)
		}
		fmt.Fprintf(w, "trace:   gateways: %s\n", strings.Join(names, ", "))
	}

	flags := func(l *graph.Link) string {
		return linkFlagText(l.Flags, res.TreeEdge(l))
	}

	out := slices.Collect(res.Links(n))
	fmt.Fprintf(w, "trace:   out-links (%d):\n", len(out))
	for _, l := range out {
		fmt.Fprintf(w, "trace:     -> %s cost %v op %v%s\n", l.To.Name, l.Cost, l.Op, flags(l))
	}

	in := 0
	for _, other := range g.Nodes() {
		for l := range res.Links(other) {
			if l.To != n {
				continue
			}
			if in == 0 {
				fmt.Fprintf(w, "trace:   in-links:\n")
			}
			in++
			fmt.Fprintf(w, "trace:     <- %s cost %v op %v%s\n", l.From.Name, l.Cost, l.Op, flags(l))
		}
	}
	if in == 0 {
		fmt.Fprintf(w, "trace:   in-links: none\n")
	}

	mc := res.Machine
	win := mc.Winner(n)
	if win < 0 {
		fmt.Fprintf(w, "trace:   not mapped (unmapped)\n")
		return
	}
	lv := mc.Label(win)
	fmt.Fprintf(w, "trace:   mapped at cost %v, %d hops\n", lv.Cost, lv.Hops)
	// The path is the labels the route came through, parent by parent:
	// under SecondBest a hop's label need not be its node's winner.
	var path []string
	for li := win; li >= 0; li = mc.Label(li).Parent {
		path = append(path, mc.Label(li).Node.Name)
	}
	slices.Reverse(path)
	fmt.Fprintf(w, "trace:   path: %s\n", strings.Join(path, " -> "))
}

func linkFlagText(f graph.LinkFlags, tree bool) string {
	var parts []string
	if f&graph.LAlias != 0 {
		parts = append(parts, "alias")
	}
	if f&graph.LNetMember != 0 {
		parts = append(parts, "net-member")
	}
	if f&graph.LNetEntry != 0 {
		parts = append(parts, "net-entry")
	}
	if f&graph.LDead != 0 {
		parts = append(parts, "dead")
	}
	if f&graph.LDeleted != 0 {
		parts = append(parts, "deleted")
	}
	if f&graph.LBack != 0 {
		parts = append(parts, "invented")
	}
	if tree {
		parts = append(parts, "tree")
	}
	if len(parts) == 0 {
		return ""
	}
	return " [" + strings.Join(parts, ",") + "]"
}
