// Package simnet simulates store-and-forward mail delivery over a
// connectivity graph, hop by hop, the way the 1986 network moved mail.
//
// Pathalias's philosophy is "get the mail through, reliably and
// efficiently". The mapper and printer can only be trusted if the routes
// they emit are *executable*: at every hop, the current host must actually
// have a way to hand the message to the next host named in the address.
// This package checks exactly that. Given a graph and a bang-path address,
// Deliver walks the address one hop at a time:
//
//   - a direct declared link to the named neighbor works;
//   - a link to any alias of the neighbor works ("the name used in a path
//     is the one understood to a host's predecessor" — so the name in the
//     address must be one the sender has a link to);
//   - co-membership in a network works (that is what the network is);
//   - a fully qualified domain name works if the sender has a link into a
//     domain that suffixes it, descending the domain tree by accreted
//     name, or if the current host is itself a member of that domain tree.
//
// A declared link carries mail one way only. The one exception is the
// back links a mapping run invents for hosts nobody declared a link to:
// the routes to those hosts assume them, so the simulator is told which
// links the run invented and treats each as declared by its sender.
//
// The integration suite uses Deliver to verify that every route pathalias
// prints really delivers, on both the paper's maps and synthetic
// 1986-scale data.
package simnet

import (
	"fmt"
	"strings"

	"pathalias/internal/graph"
	"pathalias/internal/mapper"
)

// MaxHops bounds a delivery walk; a longer trace means a loop.
const MaxHops = 64

// Network wraps a graph for delivery simulation.
type Network struct {
	g   *graph.Graph
	run *mapper.Result
}

// New returns a simulator over the graph that also assumes the back
// links run invented (run.Invented). With a nil run it assumes none.
func New(g *graph.Graph, run *mapper.Result) *Network {
	return &Network{g: g, run: run}
}

// A DeliveryError explains a failed hop.
type DeliveryError struct {
	At      string // host holding the message
	Next    string // hop it could not take
	Address string // original address
	Reason  string
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("simnet: at %s: cannot forward to %q (%s) delivering %q",
		e.At, e.Next, e.Reason, e.Address)
}

// Deliver injects an address at the named origin host and follows it hop
// by hop, re-interpreting the remaining address at every relay exactly as
// real mailers did. It returns the machine names visited, origin first,
// final destination last.
//
// Interpretation at each host: the UUCP reading (split at the leftmost
// LEFT-style operator — '!', '%', ':', '^') is tried first; if that
// neighbor is unknown, the RFC822 reading (split at the rightmost '@') is
// tried. A host that succeeds with either reading forwards the remainder.
// This "smart" fallback models the gateway hosts the paper credits with
// accepting merged syntax; routes that need the fallback are the
// ambiguous ones the mixed-syntax penalty makes rare.
func (n *Network) Deliver(origin, address string) ([]string, error) {
	cur, ok := n.g.Lookup(origin)
	if !ok {
		return nil, fmt.Errorf("simnet: unknown origin %q", origin)
	}
	trace := []string{cur.Name}
	rest := address
	for hops := 0; ; hops++ {
		if hops > MaxHops {
			return trace, fmt.Errorf("simnet: hop limit exceeded (loop?) delivering %q", address)
		}
		li := strings.IndexAny(rest, "!%:^")
		ai := strings.LastIndexByte(rest, '@')
		if li < 0 && ai < 0 {
			return trace, nil // rest is the bare user name: delivered
		}

		// UUCP reading: leftmost LEFT-operator names the next hop.
		if li > 0 {
			if next, _ := n.forward(cur, rest[:li]); next != nil {
				cur = next
				trace = append(trace, cur.Name)
				rest = rest[li+1:]
				continue
			}
		}
		// RFC822 reading: rightmost @ names the next hop.
		if ai >= 0 && ai+1 < len(rest) {
			if next, _ := n.forward(cur, rest[ai+1:]); next != nil {
				cur = next
				trace = append(trace, cur.Name)
				rest = rest[:ai]
				continue
			}
		}
		wanted := rest
		if li > 0 {
			wanted = rest[:li]
		} else if ai >= 0 {
			wanted = rest[ai+1:]
		}
		return trace, &DeliveryError{At: cur.Name, Next: wanted, Address: address,
			Reason: "no declared link, shared network, or domain path"}
	}
}

// forward finds the machine that host cur can hand mail for name to, or
// nil with a diagnostic reason.
func (n *Network) forward(cur *graph.Node, name string) (*graph.Node, string) {
	// The message sits on a machine; the machine's links may hang off any
	// of its alias names.
	machines := aliasSet(cur)

	// 1. Direct link (or link to an alias of the target bearing exactly
	// the name used in the address).
	for _, m := range machines {
		for l := range n.run.Links(m) {
			if !l.Usable() || l.Flags&graph.LNetMember != 0 {
				continue
			}
			if l.Flags&graph.LAlias != 0 {
				continue
			}
			if l.To.Name == name && !l.To.IsNet() {
				return l.To, ""
			}
		}
	}

	// 2. Network co-membership: cur is a member of a net that also has a
	// member (or the net can descend to a member) with this name.
	for _, m := range machines {
		for l := m.FirstLink(); l != nil; l = l.Next {
			if !l.Usable() || l.Flags&graph.LNetEntry == 0 {
				continue
			}
			if t := findMember(l.To, name); t != nil {
				return t, ""
			}
		}
	}

	// 3. Domain-qualified name: a link into a domain whose accreted name
	// suffixes the target ("caip.rutgers.edu" via a link to .edu or to
	// .rutgers.edu), then descend by accreted names.
	if strings.Contains(name, ".") {
		for _, m := range machines {
			for l := range n.run.Links(m) {
				if !l.Usable() || l.Flags&(graph.LAlias|graph.LNetMember) != 0 {
					continue
				}
				d := l.To
				if !d.IsDomain() {
					continue
				}
				if t := findDomainMember(d, d.Name, name); t != nil {
					return t, ""
				}
			}
		}
	}

	return nil, "no declared link, shared network, or domain path"
}

// aliasSet returns the node and all nodes joined to it by alias edges
// (transitively): the set of names for one machine.
func aliasSet(n *graph.Node) []*graph.Node {
	set := []*graph.Node{n}
	seen := map[*graph.Node]bool{n: true}
	for i := 0; i < len(set); i++ {
		for l := set[i].FirstLink(); l != nil; l = l.Next {
			if l.Flags&graph.LAlias != 0 && !seen[l.To] {
				seen[l.To] = true
				set = append(set, l.To)
			}
		}
	}
	return set
}

// findMember looks for a non-net member of net named name (one level; a
// member that is itself a network is not descended — plain networks do
// not nest in the map language, only domains do).
func findMember(net *graph.Node, name string) *graph.Node {
	for l := net.FirstLink(); l != nil; l = l.Next {
		if l.Flags&graph.LNetMember == 0 || !l.Usable() {
			continue
		}
		if l.To.Name == name && !l.To.IsNet() {
			return l.To
		}
	}
	return nil
}

// findDomainMember descends domain d (whose accreted name is accreted)
// looking for the member whose fully qualified name equals target.
func findDomainMember(d *graph.Node, accreted, target string) *graph.Node {
	if !strings.HasSuffix(target, accreted) {
		return nil
	}
	for l := d.FirstLink(); l != nil; l = l.Next {
		if l.Flags&graph.LNetMember == 0 || !l.Usable() {
			continue
		}
		m := l.To
		if m.IsDomain() {
			if t := findDomainMember(m, m.Name+accreted, target); t != nil {
				return t
			}
			continue
		}
		if m.Name+accreted == target || m.Name == target {
			return m
		}
	}
	return nil
}

// VerifyRoute checks that a route format string, addressed from origin,
// delivers to a machine answering to wantHost (its own name, an alias, or
// its domain-qualified name). A domain entry (wantHost beginning with '.')
// verifies against the domain's gateways, because "the route [to a
// top-level domain] is given by the route to its parent (i.e., its
// gateway)" and the mailer supplies a gateway-relative argument.
// It returns the delivery trace.
func (n *Network) VerifyRoute(origin, routeFormat, wantHost string) ([]string, error) {
	const probe = "probe-user"
	address := strings.Replace(routeFormat, "%s", probe, 1)
	trace, err := n.Deliver(origin, address)
	if err != nil {
		return trace, err
	}
	final := trace[len(trace)-1]
	if final == wantHost {
		return trace, nil
	}
	finalNode, ok := n.g.Lookup(final)
	if !ok {
		return trace, fmt.Errorf("simnet: route %q ended at unknown machine %s", routeFormat, final)
	}
	// A domain's route must land on one of its gateways.
	if strings.HasPrefix(wantHost, ".") {
		if d, ok := n.g.Lookup(wantHost); ok && d.IsDomain() {
			for _, a := range aliasSet(finalNode) {
				if d.IsGateway(a) {
					return trace, nil
				}
			}
		}
		return trace, fmt.Errorf("simnet: domain route %q delivered to %s, not a gateway of %s (trace %v)",
			routeFormat, final, wantHost, trace)
	}
	// The destination may be known by an alias of the final machine or by
	// its domain-qualified name.
	for _, a := range aliasSet(finalNode) {
		if a.Name == wantHost {
			return trace, nil
		}
	}
	if strings.HasPrefix(wantHost, final+".") {
		return trace, nil
	}
	return trace, fmt.Errorf("simnet: route %q delivered to %s, want %s (trace %v)",
		routeFormat, final, wantHost, trace)
}
