package remap_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pathalias"
	"pathalias/internal/certify"
	"pathalias/internal/graph"
	"pathalias/internal/remap"
)

// backLinkMap is a map whose back links come in rounds. p declares only
// a link to a, so a full run reaches it through the invented a→p (phase
// 1); q declares only a link to p, so it hangs below through p→q (phase
// 2). s reaches a, b and c over declared links, and twenty leaves that
// keep each edit's dirty region under the engine's full-run threshold.
// Each case below edits it.
const backLinkMap = `s	a(10), b(10)
a	c(10)
p	a(5)
q	p(7)
s	f0(1), f1(1), f2(1), f3(1), f4(1), f5(1), f6(1), f7(1), f8(1), f9(1), f10(1), f11(1), f12(1), f13(1), f14(1), f15(1), f16(1), f17(1), f18(1), f19(1)
`

// routeText renders routes the way both sides can be compared.
func routeText(cost int64, host, route string) string {
	return fmt.Sprintf("%d\t%s\t%s\n", cost, host, route)
}

// freshRoutes maps src from host with pathalias.Run.
func freshRoutes(t *testing.T, label, host, src string) (routes string, res *pathalias.Result) {
	t.Helper()
	res, err := pathalias.Run(pathalias.Options{LocalHost: host}, pathalias.Input{Name: "b.map", Text: src})
	if err != nil {
		t.Fatalf("%s [%s]: fresh run: %v", label, host, err)
	}
	var w strings.Builder
	for _, r := range res.Routes {
		w.WriteString(routeText(int64(r.Cost), r.Host, r.Format))
	}
	return w.String(), res
}

// TestBackLinkStratification walks one engine through edits that move
// hosts between back-link rounds: a declared path that costs more than
// the back link but wins on its phase, its removal, a round-1 link's
// neighbor moved to another round under a round-2 link, a template
// re-costed, and a forward link that blocks a back link, once as a
// usable path and once deleted. Every step must be byte-identical to
// a fresh pathalias.Run from every vantage, stay warm, and pass the
// back-link certificate.
func TestBackLinkStratification(t *testing.T) {
	edited := func(old, new string) string { return strings.Replace(backLinkMap, old, new, 1) }
	steps := []struct {
		label, src string
		backLinks  int // hosts the default vantage reaches over back links
	}{
		{"initial", backLinkMap, 2},
		{"dearer declared path wins on phase", backLinkMap + "b\tp(500)\n", 1},
		{"declared path removed", backLinkMap, 2},
		{"round-1 neighbor re-costed", edited("s\ta(10)", "s\ta(30)"), 2},
		{"round-1 neighbor moved a round up", edited("s\ta(10), b(10)", "s\tb(10)") + "a\tb(3)\n", 3},
		{"round-1 neighbor back", backLinkMap, 2},
		{"template re-costed", edited("p\ta(5)", "p\ta(8)"), 2},
		{"forward link blocks and replaces", backLinkMap + "a\tp(50)\n", 1},
		{"forward link deleted, still blocking", backLinkMap + "a\tp(50)\ndelete {a!p}\n", 0},
		{"forward link gone", backLinkMap, 2},
	}
	vantages := []string{"s", "a", "b"}
	m, err := remap.NewMulti(remap.Options{LocalHost: "s"})
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range steps {
		src := step.src
		if err := m.Update([]remap.Input{{Name: "b.map", Src: src}}); err != nil {
			t.Fatalf("%s: %v", step.label, err)
		}
		for _, host := range vantages {
			want, fresh := freshRoutes(t, step.label, host, src)
			got, err := m.ResultFor(host)
			if err != nil {
				t.Fatalf("%s [%s]: %v", step.label, host, err)
			}
			var g strings.Builder
			for _, en := range got.Entries {
				g.WriteString(routeText(int64(en.Cost), en.Host, en.Route))
			}
			if g.String() != want {
				t.Errorf("%s [%s]: routes diverge from a fresh run\n got:\n%s\nwant:\n%s", step.label, host, g.String(), want)
			}
			if !slices.Equal(got.Unreachable, fresh.Unreachable) || got.BackLinked != fresh.Stats.BackLinked {
				t.Errorf("%s [%s]: unreachable %q, %d back-linked; fresh run %q, %d",
					step.label, host, got.Unreachable, got.BackLinked, fresh.Unreachable, fresh.Stats.BackLinked)
			}
			if i > 0 && host == "s" && !got.Incremental {
				t.Errorf("%s: the default vantage re-mapped in full", step.label)
			}
			if host == "s" && got.BackLinked != step.backLinks {
				t.Errorf("%s: %d hosts back-linked, the case wants %d", step.label, got.BackLinked, step.backLinks)
			}
		}
		if err := remap.VerifyBackLinks(m); err != nil {
			t.Fatalf("%s: %v", step.label, err)
		}
	}
}

// TestBackLinkOverlays asks what-if questions that touch back links
// from the resident default vantage, so each run starts warm from its
// solved tree: a round-1 and a round-2 template removed (`dead`, which
// like the source's delete {a!b} keeps the pair blocking), a template
// re-costed, and a forward link added over a back link's pair. r
// declares links to p and b, so it maps in round 1 and offers p a
// dearer round-1 path. Each must equal a fresh run over the source
// edited the same way, and pass the back-link certificate.
func TestBackLinkOverlays(t *testing.T) {
	src := backLinkMap + "r\tp(4), b(40)\n"
	m, err := remap.NewMulti(remap.Options{LocalHost: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update([]remap.Input{{Name: "b.map", Src: src}}); err != nil {
		t.Fatal(err)
	}
	edit := func(from, to string, fn func(ov *graph.Overlay, l *graph.Link, a, b *graph.Node)) func(remap.OverlayCtx) (*graph.Overlay, error) {
		return func(ctx remap.OverlayCtx) (*graph.Overlay, error) {
			a, _ := ctx.Lookup(from)
			b, _ := ctx.Lookup(to)
			if a == nil || b == nil {
				return nil, fmt.Errorf("no host %s or %s", from, to)
			}
			ov := graph.NewOverlay()
			fn(ov, ctx.FindLink(a, b), a, b)
			return ov, nil
		}
	}
	cases := []struct {
		name, rebuilt string
		build         func(remap.OverlayCtx) (*graph.Overlay, error)
	}{
		{"dead template", src + "delete {p!a}\n",
			edit("p", "a", func(ov *graph.Overlay, l *graph.Link, _, _ *graph.Node) { ov.RemoveLink(l) })},
		{"dead round-2 template", src + "delete {q!p}\n",
			edit("q", "p", func(ov *graph.Overlay, l *graph.Link, _, _ *graph.Node) { ov.RemoveLink(l) })},
		{"template re-costed", strings.Replace(src, "p\ta(5)", "p\ta(9)", 1),
			edit("p", "a", func(ov *graph.Overlay, l *graph.Link, _, _ *graph.Node) { ov.OverrideCost(l, 9) })},
		{"forward link added", src + "p\tq(2)\n",
			edit("p", "q", func(ov *graph.Overlay, _ *graph.Link, a, b *graph.Node) { ov.AddLink(a, b, 2, graph.DefaultOp) })},
	}
	for _, c := range cases {
		run, err := m.EvalOverlay("s", c.build)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !run.Warm {
			t.Errorf("%s: the question did not start warm", c.name)
		}
		want, fresh := freshRoutes(t, c.name, "s", c.rebuilt)
		var g strings.Builder
		for _, en := range run.Entries {
			g.WriteString(routeText(int64(en.Cost), en.Host, en.Route))
		}
		if g.String() != want {
			t.Errorf("%s: routes diverge from the rebuilt map\n got:\n%s\nwant:\n%s", c.name, g.String(), want)
		}
		if !slices.Equal(run.Unreachable, fresh.Unreachable) {
			t.Errorf("%s: unreachable %q, rebuilt map %q", c.name, run.Unreachable, fresh.Unreachable)
		}
		if err := certify.BackLinks(run.Machine, run.Snap, run.Overlay); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
