// Package dot renders connectivity graphs and route trees in Graphviz DOT
// format, for inspecting map data the way the paper's figures do: hosts as
// ellipses, networks and domains as boxes, alias pairs as dashed
// undirected edges, tree edges emphasized.
package dot

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"pathalias/internal/graph"
	"pathalias/internal/mapper"
)

// Options control rendering.
type Options struct {
	// MaxNodes truncates enormous graphs (0 = no limit). Truncation adds
	// a comment node so the cut is visible.
	MaxNodes int
	// Costs labels edges with their costs.
	Costs bool
}

// quote escapes a name for DOT.
func quote(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}

// WriteGraph renders the connectivity graph. With a mapping result (res
// may be nil), each node's links are followed by the back links the run
// invented out of it, drawn dotted, and the winning tree edges are drawn
// bold.
func WriteGraph(w io.Writer, g *graph.Graph, res *mapper.Result, opts Options) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph pathalias {")
	fmt.Fprintln(bw, "\trankdir=LR;")
	fmt.Fprintln(bw, "\tnode [fontname=\"Helvetica\"];")

	limit := opts.MaxNodes
	count := 0
	for _, n := range g.Nodes() {
		if n.IsDeleted() {
			continue
		}
		if limit > 0 && count >= limit {
			fmt.Fprintf(bw, "\ttruncated [shape=plaintext, label=\"(+%d more nodes)\"];\n",
				g.Len()-count)
			break
		}
		count++
		attrs := nodeAttrs(n)
		fmt.Fprintf(bw, "\t%s%s;\n", quote(n.Name), attrs)
		for l := range res.Links(n) {
			if l.Flags&graph.LDeleted != 0 || l.To.IsDeleted() {
				continue
			}
			if l.Flags&graph.LAlias != 0 {
				// Render each alias pair once, undirected-looking.
				if n.ID < l.To.ID {
					fmt.Fprintf(bw, "\t%s -> %s [style=dashed, dir=none, label=\"alias\"];\n",
						quote(n.Name), quote(l.To.Name))
				}
				continue
			}
			var eattrs []string
			if opts.Costs {
				eattrs = append(eattrs, fmt.Sprintf("label=\"%v\"", l.Cost))
			}
			if res.TreeEdge(l) {
				eattrs = append(eattrs, "penwidth=2")
			}
			if l.Flags&graph.LBack != 0 {
				eattrs = append(eattrs, "style=dotted")
			}
			if l.Flags&graph.LDead != 0 {
				eattrs = append(eattrs, "color=red")
			}
			if l.Flags&(graph.LNetMember|graph.LNetEntry) != 0 {
				eattrs = append(eattrs, "color=gray")
			}
			suffix := ""
			if len(eattrs) > 0 {
				suffix = " [" + strings.Join(eattrs, ", ") + "]"
			}
			fmt.Fprintf(bw, "\t%s -> %s%s;\n", quote(n.Name), quote(l.To.Name), suffix)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

func nodeAttrs(n *graph.Node) string {
	var attrs []string
	switch {
	case n.IsDomain():
		attrs = append(attrs, "shape=box", "style=rounded")
	case n.IsNet():
		attrs = append(attrs, "shape=box")
	}
	if n.IsPrivate() {
		attrs = append(attrs, "style=dashed")
	}
	if n.IsDead() {
		attrs = append(attrs, "color=red")
	}
	if len(attrs) == 0 {
		return ""
	}
	return " [" + strings.Join(attrs, ", ") + "]"
}

// WriteTree renders the shortest-path tree of a mapping result, labeling
// each node with its cost.
func WriteTree(w io.Writer, res *mapper.Result) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph routes {")
	fmt.Fprintln(bw, "\trankdir=LR;")
	mc := res.Machine
	var walk func(li int32)
	walk = func(li int32) {
		lv := mc.Label(li)
		style := ""
		if mc.Winner(lv.Node) != li {
			style = ", style=dashed"
		}
		fmt.Fprintf(bw, "\t%s [label=\"%s\\n%v\"%s];\n", quote(id(lv)), lv.Node.Name, lv.Cost, style)
		for _, c := range mc.AppendChildren(nil, li) {
			fmt.Fprintf(bw, "\t%s -> %s;\n", quote(id(lv)), quote(id(mc.Label(c))))
			walk(c)
		}
	}
	if root := mc.Root(); root >= 0 {
		walk(root)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// id gives a label a unique DOT identity even when a graph node has
// two (second-best mode).
func id(lv mapper.LabelView) string {
	if lv.InDomain {
		return lv.Node.Name + "#tainted"
	}
	return lv.Node.Name
}
