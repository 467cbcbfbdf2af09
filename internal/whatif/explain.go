package whatif

import (
	"fmt"
	"strings"

	"pathalias/internal/cost"
	"pathalias/internal/graph"
	"pathalias/internal/remap"
)

// Route explanation: walk the winning label's parent chain and re-derive
// every cost component the mapper's relax step charged — link cost, dead
// / adjustment / gateway / domain-relay / mixed-syntax penalties, the
// tie-break inputs (hop count, name rank), and whether the hop rode an
// invented back link. The decomposition repeats relax()'s exact
// saturating-add order, so the per-hop steps sum to the mapper's route
// cost by construction (TestExplainSumsToRouteCost enforces it).

// Penalty is one surcharge the mapper added on top of a hop's link cost.
type Penalty struct {
	Kind string    `json:"kind"` // dead, adjust, gateway, domain-relay, mixed
	Cost cost.Cost `json:"cost"`
}

// Hop is one edge of an explained route, in root-to-destination order.
type Hop struct {
	From      string    `json:"from"`
	To        string    `json:"to"`
	Op        string    `json:"op"`   // effective routing character
	Kind      string    `json:"kind"` // link, alias, net-entry, net-member, back
	Link      cost.Cost `json:"link"` // the edge's (possibly overridden) cost
	Penalties []Penalty `json:"penalties,omitempty"`
	Step      cost.Cost `json:"step"`  // link + penalties, saturating
	Total     cost.Cost `json:"total"` // cumulative route cost at To
	Hops      int32     `json:"hops"`  // tie-break: hop count at To
	Rank      int32     `json:"rank"`  // tie-break: To's name rank
	Back      bool      `json:"back,omitempty"`
}

// Explanation explains one destination's route from one vantage.
type Explanation struct {
	Dest    string    `json:"dest"`              // as queried
	Found   bool      `json:"found"`             // false: no route (Reason says why)
	Reason  string    `json:"reason,omitempty"`  // when !Found
	Matched string    `json:"matched,omitempty"` // the index key that matched (".edu" for a suffix hit)
	Host    string    `json:"host,omitempty"`    // the route entry explained
	Route   string    `json:"route,omitempty"`
	Cost    cost.Cost `json:"cost"`
	Mixed   bool      `json:"mixed,omitempty"` // the winner is the mixed-syntax (tainted) label
	Hops    []Hop     `json:"hops,omitempty"`
}

// ExplainResult pairs the base route's explanation with the overlaid
// one, both mapped at the same engine generation.
type ExplainResult struct {
	Gen     uint64       `json:"gen"`
	From    string       `json:"from"`
	Overlay string       `json:"overlay,omitempty"` // canonical; empty for a base-only query
	Base    *Explanation `json:"base"`
	Under   *Explanation `json:"under,omitempty"` // under the overlay
}

// Explain explains how dest routes from the vantage host — and, when
// spec is non-empty, how it would route under the overlay, at the same
// generation.
func (ev *Evaluator) Explain(from, spec, dest string) (*ExplainResult, error) {
	var sp *Spec
	if spec != "" {
		var err error
		if sp, err = ev.parse(spec); err != nil {
			return nil, err
		}
	}
	for attempt := 0; ; attempt++ {
		base, err := ev.eval(from, nil)
		if err != nil {
			return nil, err
		}
		res := &ExplainResult{
			Gen:  base.run.Gen,
			From: base.run.Host,
			Base: explainOne(base, dest),
		}
		if sp == nil {
			return res, nil
		}
		over, err := ev.eval(from, sp)
		if err != nil {
			return nil, err
		}
		if over.run.Gen != base.run.Gen {
			if attempt < 3 {
				continue
			}
			return nil, fmt.Errorf("whatif: map updating too fast for a consistent explanation")
		}
		res.Overlay = sp.Canonical()
		res.Under = explainOne(over, dest)
		return res, nil
	}
}

// explainOne explains dest against one cached evaluation.
func explainOne(ent *cacheEntry, dest string) *Explanation {
	res, err := ent.db.Resolve(dest, "%s")
	if err != nil {
		return &Explanation{Dest: dest, Reason: err.Error()}
	}
	x := &Explanation{
		Dest:    dest,
		Matched: res.Matched,
		Host:    res.Entry.Host,
		Route:   res.Entry.Route,
	}
	li, ok := ent.run.LabelFor(res.Entry.Host)
	if !ok {
		x.Reason = fmt.Sprintf("no label for entry host %q", res.Entry.Host)
		return x
	}
	x.Found = true
	mc := ent.run.Machine
	x.Mixed = li != mc.NodeLabel(int32(mc.Label(li).Node.ID)) // a node's second label is its tainted one
	x.Cost, x.Hops = explainChain(ent.run, li)
	return x
}

// explainChain decomposes the path root -> label li hop by hop and
// returns the destination label's cost with the hop list.
func explainChain(run *remap.OverlayRun, li int32) (cost.Cost, []Hop) {
	mc, snap := run.Machine, run.Snap
	opts := mc.Options()

	var chain []int32
	for i := li; ; {
		c := mc.Label(i)
		chain = append(chain, i)
		if c.Parent < 0 {
			break
		}
		i = c.Parent
	}
	// chain is dest..root; walk it backwards.
	hops := make([]Hop, 0, len(chain)-1)
	for k := len(chain) - 2; k >= 0; k-- {
		p := mc.Label(chain[k+1]) // parent
		c := mc.Label(chain[k])   // child
		u, v := int32(p.Node.ID), int32(c.Node.ID)

		// The edge relax() extended: a snapshot CSR edge (found by link
		// identity — never dereference the shared link), or a private
		// invented back link.
		eCost, eFlags := c.Via.Cost, c.Via.Flags
		for e := snap.Row[u]; e < snap.Row[u+1]; e++ {
			if snap.EdgeLink[e] == c.Via {
				eCost, eFlags = snap.EdgeCost[e], snap.EdgeFlags[e]
				break
			}
		}

		h := Hop{
			From: p.Node.Name,
			To:   c.Node.Name,
			Op:   string(c.ViaOp.Char),
			Kind: hopKind(eFlags),
			Link: eCost,
			Hops: c.Hops,
			Rank: snap.Rank[v],
			Back: eFlags&graph.LBack != 0,
		}

		// Re-derive relax()'s surcharges in its exact order; the step
		// must use the same saturating adds so totals match even at the
		// Infinity ceiling.
		step := eCost
		charge := func(kind string, amount cost.Cost) {
			step = step.Add(amount)
			h.Penalties = append(h.Penalties, Penalty{Kind: kind, Cost: amount})
		}
		vFlags := snap.NodeFlags[v]
		if eFlags&graph.LDead != 0 || vFlags&graph.FDead != 0 {
			charge("dead", opts.DeadPenalty)
		}
		if p.Parent >= 0 && snap.Adjust[u] != 0 {
			charge("adjust", snap.Adjust[u])
		}
		if vFlags&graph.FGatewayed != 0 && eFlags&graph.LNetMember == 0 &&
			eFlags&graph.LAlias == 0 && !snap.IsGateway(v, u) {
			charge("gateway", opts.GatewayPenalty)
		}
		syntaxBearing := eFlags&(graph.LAlias|graph.LNetEntry) == 0
		realHop := eFlags&(graph.LAlias|graph.LNetMember) == 0
		if p.InDomain && realHop {
			charge("domain-relay", opts.DomainRelayPenalty)
		}
		if syntaxBearing {
			d := uint8(1)
			if c.ViaOp.Dir == graph.DirRight {
				d = 2
			}
			if p.LastDir == 2 && d == 1 {
				charge("mixed", opts.MixedPenalty)
			}
		}
		h.Step = step
		h.Total = p.Cost.Add(step)
		hops = append(hops, h)
	}
	return mc.Label(li).Cost, hops
}

func hopKind(f graph.LinkFlags) string {
	switch {
	case f&graph.LBack != 0:
		return "back"
	case f&graph.LAlias != 0:
		return "alias"
	case f&graph.LNetEntry != 0:
		return "net-entry"
	case f&graph.LNetMember != 0:
		return "net-member"
	default:
		return "link"
	}
}

// Line renders the explanation as one protocol-friendly line:
//
//	route duke!research!%s cost 3000 hops 2: unc =!= duke [link 500 = 500; h1 r?] ...
func (x *Explanation) Line() string {
	if !x.Found {
		if x.Reason != "" {
			return "no route (" + x.Reason + ")"
		}
		return "no route"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "route %s cost %d", x.Route, int64(x.Cost))
	// The matched index key is interesting when it is not the queried
	// name itself — a domain-suffix hit (mit.edu matched .edu) or a
	// case-folded match.
	if x.Matched != "" && x.Matched != x.Dest {
		fmt.Fprintf(&b, " matched %s", x.Matched)
	}
	if x.Mixed {
		b.WriteString(" mixed")
	}
	for _, h := range x.Hops {
		fmt.Fprintf(&b, "; %s %s> %s link %d", h.From, h.Op, h.To, int64(h.Link))
		for _, pen := range h.Penalties {
			fmt.Fprintf(&b, " +%s %d", pen.Kind, int64(pen.Cost))
		}
		fmt.Fprintf(&b, " total %d (%s h%d r%d)", int64(h.Total), h.Kind, h.Hops, h.Rank)
	}
	return b.String()
}
