package graph

// RefCache memoizes Ref for a stream of graph operations in one private
// scope: the batch parse's merge and the re-map engine's replay both
// resolve every name through one. Consecutive operations overwhelmingly
// name the same source host (a declaration line references its host once
// per link), so a one-entry slot answers those without a hash probe; link
// destinations concentrate on hub hosts, so a direct-mapped table absorbs
// a large share of theirs. A binding may differ across scopes: callers
// Reset the cache whenever the private scope changes (a new file, a
// private declaration, a file{} switch). The zero value is empty.
type RefCache struct {
	name  string
	node  *Node
	dests [refDestSlots]struct {
		name string
		node *Node
	}
}

// refDestSlots is the size of the destination table, a power of two.
const refDestSlots = 2048

// Ref resolves name in g like g.Ref, through the one-entry slot.
func (c *RefCache) Ref(g *Graph, name string) *Node {
	if name == c.name && c.node != nil {
		return c.node
	}
	n := g.Ref(name)
	c.name, c.node = name, n
	return n
}

// Dest resolves a link destination in g like g.Ref, through the
// direct-mapped table.
func (c *RefCache) Dest(g *Graph, name string) *Node {
	s := &c.dests[destSlot(name)]
	if s.name == name && s.node != nil {
		return s.node
	}
	n := g.Ref(name)
	s.name, s.node = name, n
	return n
}

// Reset empties the cache, dropping every name and node it holds.
func (c *RefCache) Reset() {
	c.name, c.node = "", nil
	clear(c.dests[:])
}

// destSlot is a cheap direct-mapped hash over a non-empty host name,
// salted with a middle byte so numbered host names spread.
func destSlot(name string) int {
	n := len(name)
	return (n*131 + int(name[0])*31 + int(name[n-1])*7 + int(name[n/2])) & (refDestSlots - 1)
}
