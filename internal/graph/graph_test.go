package graph

import (
	"strings"
	"testing"
	"unsafe"

	"pathalias/internal/cost"
)

// TestLinkSize: Link.Decl fills the padding after Flags, so a link stays
// 40 bytes on 64-bit platforms (the parser allocates one per declared
// pair).
func TestLinkSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("32-bit platform")
	}
	if got := unsafe.Sizeof(Link{}); got != 40 {
		t.Errorf("Link is %d bytes, want 40", got)
	}
}

func TestRefCreatesOnce(t *testing.T) {
	g := New()
	g.BeginFile("f1")
	a := g.Ref("unc")
	b := g.Ref("unc")
	if a != b {
		t.Error("two Refs of the same name returned distinct nodes")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d want 1", g.Len())
	}
	if a.Name != "unc" || a.ID != 0 || a.File != "f1" {
		t.Errorf("node = %+v", a)
	}
}

func TestRefAcrossFilesIsGlobal(t *testing.T) {
	g := New()
	g.BeginFile("f1")
	a := g.Ref("duke")
	g.BeginFile("f2")
	b := g.Ref("duke")
	if a != b {
		t.Error("global name resolved to different nodes across files")
	}
}

func TestPaperFigureABLinks(t *testing.T) {
	// The paper's first figure: a with edges to b (cost 10) and c (20).
	g := New()
	a, b, c := g.Ref("a"), g.Ref("b"), g.Ref("c")
	g.AddLink(a, b, 10, DefaultOp, 0)
	g.AddLink(a, c, 20, DefaultOp, 0)

	var got []string
	a.Links(func(l *Link) bool {
		got = append(got, l.To.Name)
		return true
	})
	if strings.Join(got, ",") != "b,c" {
		t.Errorf("adjacency = %v, want declaration order b,c", got)
	}
	if l := g.FindLink(a, b); l == nil || l.Cost != 10 {
		t.Errorf("a->b = %v", l)
	}
	if l := g.FindLink(a, c); l == nil || l.Cost != 20 {
		t.Errorf("a->c = %v", l)
	}
	if g.FindLink(b, a) != nil {
		t.Error("links are directed; b->a must not exist")
	}
	if a.Degree() != 2 || b.Degree() != 0 {
		t.Errorf("degrees: a=%d b=%d", a.Degree(), b.Degree())
	}
}

func TestDuplicateLinkCheaperWins(t *testing.T) {
	g := New()
	a, b := g.Ref("a"), g.Ref("b")
	first := g.AddLink(a, b, 500, DefaultOp, 0)
	second := g.AddLink(a, b, 300, OpFor('@'), 0)
	if first != second {
		t.Error("duplicate link created a second edge")
	}
	if first.Cost != 300 {
		t.Errorf("dup cost = %v, want cheaper 300", first.Cost)
	}
	if first.Op.Char != '@' {
		t.Error("surviving declaration's operator not kept")
	}
	third := g.AddLink(a, b, 900, DefaultOp, 0)
	if third.Cost != 300 {
		t.Errorf("more expensive dup overwrote: %v", third.Cost)
	}
	if got := g.Stats().DupLinks; got != 2 {
		t.Errorf("DupLinks = %d want 2", got)
	}
}

func TestSelfLinkIgnored(t *testing.T) {
	g := New()
	a := g.Ref("a")
	if l := g.AddLink(a, a, 10, DefaultOp, 0); l != nil {
		t.Error("self link created")
	}
	if a.Degree() != 0 {
		t.Error("self link appended")
	}
	if g.Stats().SelfLinks != 1 {
		t.Errorf("SelfLinks = %d", g.Stats().SelfLinks)
	}
}

func TestAlias(t *testing.T) {
	// princeton with nickname fun: a pair of zero-cost ALIAS edges.
	g := New()
	p, f := g.Ref("princeton"), g.Ref("fun")
	g.AddAlias(p, f)

	var pf, fp *Link
	p.Links(func(l *Link) bool {
		if l.To == f {
			pf = l
		}
		return true
	})
	f.Links(func(l *Link) bool {
		if l.To == p {
			fp = l
		}
		return true
	})
	if pf == nil || fp == nil {
		t.Fatal("alias edges missing in one or both directions")
	}
	if pf.Cost != 0 || fp.Cost != 0 {
		t.Error("alias edges must be zero cost")
	}
	if pf.Flags&LAlias == 0 || fp.Flags&LAlias == 0 {
		t.Error("alias edges must carry LAlias")
	}
	// Idempotent.
	g.AddAlias(p, f)
	if g.Stats().AliasEdges != 2 {
		t.Errorf("AliasEdges = %d want 2", g.Stats().AliasEdges)
	}
	// Self alias ignored.
	g.AddAlias(p, p)
	if g.Stats().AliasEdges != 2 {
		t.Error("self alias created edges")
	}
}

func TestNetworkHub(t *testing.T) {
	// UNC-dwarf = {dopey, grumpy, sleepy}(10): pay 10 in, free out.
	g := New()
	net := g.Ref("UNC-dwarf")
	members := []*Node{g.Ref("dopey"), g.Ref("grumpy"), g.Ref("sleepy")}
	g.AddNet(net, members, 10, DefaultOp)

	if !net.IsNet() {
		t.Error("net node not flagged FNet")
	}
	for _, m := range members {
		var entry, out *Link
		m.Links(func(l *Link) bool {
			if l.To == net && l.Flags&LNetEntry != 0 {
				entry = l
			}
			return true
		})
		net.Links(func(l *Link) bool {
			if l.To == m && l.Flags&LNetMember != 0 {
				out = l
			}
			return true
		})
		if entry == nil || entry.Cost != 10 {
			t.Errorf("%s entry edge = %v", m.Name, entry)
		}
		if out == nil || out.Cost != 0 {
			t.Errorf("%s member edge = %v", m.Name, out)
		}
	}
	// Hub representation: 2n edges, not n(n-1).
	if st := g.Stats(); st.Links != 6 {
		t.Errorf("links = %d want 6 (2 per member)", st.Links)
	}
}

func TestDomainFlagsAutomatic(t *testing.T) {
	g := New()
	d := g.Ref(".edu")
	if !d.IsDomain() || !d.IsNet() {
		t.Error(".edu not flagged domain/net")
	}
	if d.Flags&FGatewayed == 0 {
		t.Error("domains must require gateways")
	}
	h := g.Ref("seismo")
	if h.IsDomain() || h.Flags&FGatewayed != 0 {
		t.Error("plain host wrongly flagged")
	}
}

func TestSubdomainParentEdgeInfinite(t *testing.T) {
	// .edu = {.rutgers}: the subdomain→parent edge is essentially
	// infinite, preventing caip!seismo.css.gov.edu.rutgers!%s absurdities.
	g := New()
	edu := g.Ref(".edu")
	rutgers := g.Ref(".rutgers")
	g.AddNet(edu, []*Node{rutgers}, 100, DefaultOp)

	var up, down *Link
	rutgers.Links(func(l *Link) bool {
		if l.To == edu {
			up = l
		}
		return true
	})
	edu.Links(func(l *Link) bool {
		if l.To == rutgers {
			down = l
		}
		return true
	})
	if up == nil || !up.Cost.IsInfinite() {
		t.Errorf("subdomain→parent edge = %v, want infinite", up)
	}
	if down == nil || down.Cost != 0 {
		t.Errorf("parent→subdomain edge = %v, want zero", down)
	}
}

func TestDomainMembersBecomeGateways(t *testing.T) {
	// .rutgers.edu = {caip, blue} — "This makes caip a gateway for
	// .rutgers.edu".
	g := New()
	d := g.Ref(".rutgers.edu")
	caip, blue := g.Ref("caip"), g.Ref("blue")
	g.AddNet(d, []*Node{caip, blue}, cost.Local, DefaultOp)
	if !d.IsGateway(caip) || !d.IsGateway(blue) {
		t.Error("domain members not declared gateways")
	}
}

func TestNetworkMembersAreNotGateways(t *testing.T) {
	// Ordinary gatewayed networks: membership does not confer gateway
	// status ("only a (literal) handful provide gateway services").
	g := New()
	arpa := g.Ref("ARPA")
	ucb, seismo := g.Ref("ucbvax"), g.Ref("seismo")
	g.AddNet(arpa, []*Node{ucb, seismo}, cost.Dedicated, OpFor('@'))
	g.MarkGatewayed(arpa)
	if arpa.IsGateway(ucb) || arpa.IsGateway(seismo) {
		t.Error("ordinary net members wrongly made gateways")
	}
	g.AddGateway(arpa, seismo)
	if !arpa.IsGateway(seismo) {
		t.Error("AddGateway did not register")
	}
	if arpa.IsGateway(ucb) {
		t.Error("gateway status leaked")
	}
	g.AddGateway(arpa, seismo) // idempotent
	if len(arpa.Gateways()) != 1 {
		t.Errorf("gateways = %v", arpa.Gateways())
	}
}

func TestPrivateScoping(t *testing.T) {
	// Two machines named bilbo: one linked to princeton (file f1), a
	// private one linked to wiretap (file f2).
	g := New()
	g.BeginFile("f1")
	bilbo1 := g.Ref("bilbo")
	g.AddLink(bilbo1, g.Ref("princeton"), 10, DefaultOp, 0)

	g.BeginFile("f2")
	bilbo2 := g.DeclarePrivate("bilbo")
	if bilbo2 == bilbo1 {
		t.Fatal("private bilbo is the global bilbo")
	}
	if !bilbo2.IsPrivate() {
		t.Error("private node not flagged")
	}
	// Subsequent references in f2 resolve to the private node.
	if g.Ref("bilbo") != bilbo2 {
		t.Error("Ref in declaring file did not resolve to private node")
	}
	g.AddLink(g.Ref("bilbo"), g.Ref("wiretap"), 10, DefaultOp, 0)

	// A third file sees the global bilbo again.
	g.BeginFile("f3")
	if g.Ref("bilbo") != bilbo1 {
		t.Error("Ref in another file resolved to the private node")
	}

	if g.FindLink(bilbo1, g.Ref("wiretap")) != nil {
		t.Error("global bilbo acquired the private link")
	}
	if g.FindLink(bilbo2, g.Ref("princeton")) != nil {
		t.Error("private bilbo acquired the global link")
	}
	if g.Stats().Privates != 1 {
		t.Errorf("Privates = %d", g.Stats().Privates)
	}
}

func TestPrivateBeforeGlobalReference(t *testing.T) {
	// private declared first: the file never touches the global name.
	g := New()
	g.BeginFile("f1")
	p := g.DeclarePrivate("gollum")
	if g.Ref("gollum") != p {
		t.Error("Ref did not see private binding")
	}
	g.BeginFile("f2")
	q := g.Ref("gollum")
	if q == p {
		t.Error("other file resolved to private node")
	}
	if q.IsPrivate() {
		t.Error("global node flagged private")
	}
}

func TestTwoPrivatesInDifferentFiles(t *testing.T) {
	g := New()
	g.BeginFile("f1")
	p1 := g.DeclarePrivate("bilbo")
	g.BeginFile("f2")
	p2 := g.DeclarePrivate("bilbo")
	if p1 == p2 {
		t.Error("privates in different files merged")
	}
	// Idempotent within a file.
	if g.DeclarePrivate("bilbo") != p2 {
		t.Error("re-declaration in same file created a new node")
	}
}

func TestDeadAndDelete(t *testing.T) {
	g := New()
	a, b := g.Ref("a"), g.Ref("b")
	l := g.AddLink(a, b, 10, DefaultOp, 0)

	g.MarkDead(a)
	if !a.IsDead() {
		t.Error("MarkDead")
	}
	if !g.MarkDeadLink(a, b) {
		t.Error("MarkDeadLink on existing link returned false")
	}
	if l.Flags&LDead == 0 {
		t.Error("link not flagged dead")
	}
	if g.MarkDeadLink(b, a) {
		t.Error("MarkDeadLink invented a link")
	}

	g.Delete(b)
	if !b.IsDeleted() {
		t.Error("Delete")
	}
	if l.Usable() {
		t.Error("link to deleted node still usable")
	}

	c, d := g.Ref("c"), g.Ref("d")
	l2 := g.AddLink(c, d, 5, DefaultOp, 0)
	if !g.DeleteLink(c, d) {
		t.Error("DeleteLink on existing link returned false")
	}
	if l2.Usable() {
		t.Error("deleted link still usable")
	}
	if g.DeleteLink(d, c) {
		t.Error("DeleteLink invented a link")
	}
}

func TestAdjust(t *testing.T) {
	g := New()
	n := g.Ref("w")
	g.AdjustNode(n, 10)
	g.AdjustNode(n, -3)
	if n.Adjust != 7 {
		t.Errorf("Adjust = %v want 7", n.Adjust)
	}
}

func TestLookupDoesNotCreate(t *testing.T) {
	g := New()
	if _, ok := g.Lookup("ghost"); ok {
		t.Error("Lookup found a nonexistent node")
	}
	if g.Len() != 0 {
		t.Error("Lookup created a node")
	}
	g.Ref("real")
	if n, ok := g.Lookup("real"); !ok || n.Name != "real" {
		t.Error("Lookup missed an existing node")
	}
}

func TestStats(t *testing.T) {
	g := New()
	g.BeginFile("f")
	a, b := g.Ref("a"), g.Ref("b")
	g.AddLink(a, b, 10, DefaultOp, 0)
	g.AddAlias(a, g.Ref("a2"))
	net := g.Ref("NET")
	g.AddNet(net, []*Node{a, b}, 5, DefaultOp)
	g.Ref(".edu")

	st := g.Stats()
	if st.Nodes != 5 {
		t.Errorf("Nodes = %d want 5", st.Nodes)
	}
	if st.Nets != 2 { // NET and .edu
		t.Errorf("Nets = %d want 2", st.Nets)
	}
	if st.Domains != 1 {
		t.Errorf("Domains = %d want 1", st.Domains)
	}
	if st.Hosts != 3 {
		t.Errorf("Hosts = %d want 3", st.Hosts)
	}
	// 1 plain + 2 alias + 4 net edges
	if st.Links != 7 {
		t.Errorf("Links = %d want 7", st.Links)
	}
	if st.AliasEdges != 2 {
		t.Errorf("AliasEdges = %d want 2", st.AliasEdges)
	}
	if st.HashStats.Len == 0 {
		t.Error("hash stats not propagated")
	}
}

func TestNodeStringer(t *testing.T) {
	g := New()
	h := g.Ref("plain")
	if h.String() != "plain" {
		t.Errorf("String = %q", h.String())
	}
	d := g.Ref(".edu")
	if !strings.Contains(d.String(), "domain") {
		t.Errorf("String = %q", d.String())
	}
	p := g.DeclarePrivate("p")
	g.MarkDead(p)
	s := p.String()
	if !strings.Contains(s, "private") || !strings.Contains(s, "dead") {
		t.Errorf("String = %q", s)
	}
}

func TestOpFor(t *testing.T) {
	if op := OpFor('@'); op.Dir != DirRight || op.Char != '@' {
		t.Errorf("OpFor('@') = %v", op)
	}
	for _, c := range []byte{'!', '%', ':', '^'} {
		if op := OpFor(c); op.Dir != DirLeft || op.Char != c {
			t.Errorf("OpFor(%q) = %v", c, op)
		}
	}
}

func TestWriteToRoundtripText(t *testing.T) {
	g := New()
	a, b, c := g.Ref("a"), g.Ref("b"), g.Ref("c")
	g.AddLink(a, b, 10, DefaultOp, 0)
	g.AddLink(a, c, 20, OpFor('@'), 0)
	g.AddAlias(b, g.Ref("b2"))
	net := g.Ref("NET")
	g.AddNet(net, []*Node{a, b}, 5, DefaultOp)
	g.MarkDead(c)

	var sb strings.Builder
	if _, err := g.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"a\tb(10), @c(20)",
		"NET\t= {a, b}(5)",
		"b\t= b2",
		"dead\t{c}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteTo output missing %q:\n%s", want, out)
		}
	}
}
