// Package analyze computes structural reports over connectivity graphs
// and route trees.
//
// The paper's HISTORY section explains why such reports matter: early map
// data "tended to understate the connectivity of the network, putting more
// load on co-operative sites", and the pragmatic cost metric was tuned by
// inspecting the routes experienced users preferred. This package provides
// the measurements that tuning needs:
//
//   - degree distribution and sparsity (the e ∝ v premise of the mapper);
//   - strongly connected components (which part of the network can route
//     back and forth without invented links);
//   - relay load: how many routes pass through each host in the shortest
//     path tree — the "load on co-operative sites";
//   - per-hop route length distribution (the per-hop overhead argument
//     behind DAILY = 10×HOURLY).
package analyze

import (
	"fmt"
	"io"
	"sort"

	"pathalias/internal/graph"
	"pathalias/internal/mapper"
)

// DegreeStats summarize the out-degree distribution.
type DegreeStats struct {
	Nodes     int
	Links     int
	MeanOut   float64
	MaxOut    int
	MaxOutBy  string
	Isolated  int     // nodes with no links in either direction
	Sparsity  float64 // links per node: the e ∝ v measure
	Histogram []int   // Histogram[d] = nodes with out-degree d (capped)
}

// HistogramCap bounds the degree histogram length.
const HistogramCap = 32

// Degrees measures the graph's degree structure.
func Degrees(g *graph.Graph) DegreeStats {
	st := DegreeStats{Histogram: make([]int, HistogramCap+1)}
	indeg := make([]int, g.Len())
	for _, n := range g.Nodes() {
		st.Nodes++
		d := 0
		for l := n.FirstLink(); l != nil; l = l.Next {
			d++
			indeg[l.To.ID]++
		}
		st.Links += d
		if d > st.MaxOut {
			st.MaxOut = d
			st.MaxOutBy = n.Name
		}
		if d > HistogramCap {
			d = HistogramCap
		}
		st.Histogram[d]++
	}
	for _, n := range g.Nodes() {
		if n.Degree() == 0 && indeg[n.ID] == 0 {
			st.Isolated++
		}
	}
	if st.Nodes > 0 {
		st.MeanOut = float64(st.Links) / float64(st.Nodes)
		st.Sparsity = st.MeanOut
	}
	return st
}

// SCC computes strongly connected components over usable links with
// Tarjan's algorithm (iterative, so deep graphs cannot overflow the
// stack). It returns the components, largest first.
func SCC(g *graph.Graph) [][]*graph.Node {
	n := g.Len()
	index := make([]int, n)
	lowlink := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []*graph.Node
	var comps [][]*graph.Node
	next := 0

	type frame struct {
		node *graph.Node
		link *graph.Link // next link to consider
	}

	for _, root := range g.Nodes() {
		if index[root.ID] != -1 || root.IsDeleted() {
			continue
		}
		work := []frame{{node: root, link: root.FirstLink()}}
		index[root.ID] = next
		lowlink[root.ID] = next
		next++
		stack = append(stack, root)
		onStack[root.ID] = true

		for len(work) > 0 {
			f := &work[len(work)-1]
			advanced := false
			for f.link != nil {
				l := f.link
				f.link = l.Next
				if !l.Usable() {
					continue
				}
				w := l.To
				if index[w.ID] == -1 {
					index[w.ID] = next
					lowlink[w.ID] = next
					next++
					stack = append(stack, w)
					onStack[w.ID] = true
					work = append(work, frame{node: w, link: w.FirstLink()})
					advanced = true
					break
				}
				if onStack[w.ID] && index[w.ID] < lowlink[f.node.ID] {
					lowlink[f.node.ID] = index[w.ID]
				}
			}
			if advanced {
				continue
			}
			// Node finished: pop and propagate lowlink.
			v := f.node
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].node
				if lowlink[v.ID] < lowlink[p.ID] {
					lowlink[p.ID] = lowlink[v.ID]
				}
			}
			if lowlink[v.ID] == index[v.ID] {
				var comp []*graph.Node
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w.ID] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0].Name < comps[j][0].Name
	})
	return comps
}

// RelayLoad is the count of destinations routed through each host.
type RelayLoad struct {
	Host   string
	Count  int
	IsNet  bool
	IsPriv bool
}

// Relays measures, for a completed mapping, how many destinations route
// through each node: the "load on co-operative sites". The source itself
// is excluded (everything routes through it by definition), as are the
// leaves (load 0).
func Relays(res *mapper.Result) []RelayLoad {
	counts := map[*graph.Node]int{}
	mc := res.Machine
	var walk func(li int32) int
	walk = func(li int32) int {
		below := 0
		for _, c := range mc.AppendChildren(nil, li) {
			below += walk(c)
		}
		lv := mc.Label(li)
		if lv.Parent >= 0 && below > 0 {
			counts[lv.Node] += below
		}
		carried := below
		if mc.Winner(lv.Node) == li {
			carried++ // this node itself is a destination
		}
		return carried
	}
	if root := mc.Root(); root >= 0 {
		walk(root)
	}
	loads := make([]RelayLoad, 0, len(counts))
	for n, c := range counts {
		loads = append(loads, RelayLoad{Host: n.Name, Count: c, IsNet: n.IsNet(), IsPriv: n.IsPrivate()})
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].Count != loads[j].Count {
			return loads[i].Count > loads[j].Count
		}
		return loads[i].Host < loads[j].Host
	})
	return loads
}

// HopStats is the distribution of route lengths in hops.
type HopStats struct {
	Routes  int
	MeanHop float64
	MaxHop  int
	ByHops  []int // ByHops[h] = routes of h hops (capped at HistogramCap)
}

// Hops measures route lengths over the mapping result.
func Hops(res *mapper.Result) HopStats {
	st := HopStats{ByHops: make([]int, HistogramCap+1)}
	var total int64
	mc := res.Machine
	for li := range int32(mc.NumLabels()) {
		lv := mc.Label(li)
		if lv.Node == nil || mc.Winner(lv.Node) != li || lv.Node.IsNet() || lv.Node.IsPrivate() {
			continue
		}
		st.Routes++
		h := int(lv.Hops)
		total += int64(h)
		if h > st.MaxHop {
			st.MaxHop = h
		}
		if h > HistogramCap {
			h = HistogramCap
		}
		st.ByHops[h]++
	}
	if st.Routes > 0 {
		st.MeanHop = float64(total) / float64(st.Routes)
	}
	return st
}

// Report writes a human-readable analysis of a graph and (optionally) a
// mapping result.
func Report(w io.Writer, g *graph.Graph, res *mapper.Result, topN int) {
	ds := Degrees(g)
	fmt.Fprintf(w, "nodes: %d   links: %d   links/node: %.2f (sparse iff ~constant)\n",
		ds.Nodes, ds.Links, ds.Sparsity)
	fmt.Fprintf(w, "max out-degree: %d (%s)   isolated: %d\n", ds.MaxOut, ds.MaxOutBy, ds.Isolated)

	comps := SCC(g)
	if len(comps) > 0 {
		fmt.Fprintf(w, "strongly connected components: %d (largest %d nodes = %.1f%%)\n",
			len(comps), len(comps[0]), 100*float64(len(comps[0]))/float64(max(1, ds.Nodes)))
	}

	if res == nil {
		return
	}
	hs := Hops(res)
	fmt.Fprintf(w, "routes: %d   mean hops: %.2f   max hops: %d\n", hs.Routes, hs.MeanHop, hs.MaxHop)

	loads := Relays(res)
	if topN > len(loads) {
		topN = len(loads)
	}
	if topN > 0 {
		fmt.Fprintf(w, "busiest relays (the load on co-operative sites):\n")
		for _, ld := range loads[:topN] {
			kind := ""
			if ld.IsNet {
				kind = " [net]"
			}
			fmt.Fprintf(w, "  %6d  %s%s\n", ld.Count, ld.Host, kind)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
