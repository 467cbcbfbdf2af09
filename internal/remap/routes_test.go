package remap

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pathalias/internal/printer"
)

// patchCoreMap has every case the frame rules tell apart: domain chains
// and subdomains (.bell under .att under .com), a host reached both
// inside and outside a domain (ai), aliases, and a private relay. t has
// a tie waiting: a0!t costs what x1!t does, so adding it re-routes t
// and leaves the label of t's child tc as it was.
const patchCoreMap = `local	gw1(DEMAND), gw2(HOURLY), relay(DAILY), a0(100), x1(100)
x1	t(50)
t	tc(50)
gw1	.edu(DEDICATED), gw2(DAILY)
.edu	= {.rutgers, .mit, stanford}
.rutgers	= {caip, blue}
.mit	= {ai, lcs}
caip	motown(HOURLY)
gw2	.com(DEDICATED), hub(HOURLY)
.com	= {.att, acme}
.att	= {research, .bell}
.bell	= {ihnp4}
hub	h1(HOURLY), h2(DAILY), h3(DEMAND)
h1	= h1alias
h2	ai(WEEKLY)
private {p1}
relay	p1(HOURLY), far(WEEKLY)
p1	h4(HOURLY)
h4	far(HOURLY)
`

// patchStatement draws one statement for the edit file: a domain member,
// a new subdomain, an alias, a private relay, the tie link a0!t, a plain
// link or a gateway link into a domain. i keeps invented names unique.
func patchStatement(rng *rand.Rand, i int) string {
	pick := func(names ...string) string { return names[rng.Intn(len(names))] }
	hosts := []string{"local", "gw1", "gw2", "relay", "hub", "h1", "h2", "h3", "h4", "caip", "motown", "far", "ai", "research", "acme"}
	host := func() string { return hosts[rng.Intn(len(hosts))] }
	cost := 10 * (1 + rng.Intn(300))
	switch rng.Intn(7) {
	case 0:
		return fmt.Sprintf("%s\t= {m%d}\n", pick(".rutgers", ".mit", ".att", ".bell", ".edu", ".com"), i)
	case 1:
		return fmt.Sprintf("%s\t= {.s%d}\n.s%d\t= {sh%d, %s}\n", pick(".edu", ".com", ".rutgers"), i, i, i, host())
	case 2:
		return fmt.Sprintf("%s\t= al%d\n", pick("h2", "h3", "caip", "motown", "far", "acme"), i)
	case 3:
		return fmt.Sprintf("private {pv%d}\n%s\tpv%d(%d)\npv%d\t%s(%d)\n", i, host(), i, cost, i, host(), cost)
	case 4:
		return "a0\tt(50)\n"
	case 5:
		return fmt.Sprintf("%s\t%s(%d)\n", host(), host(), cost)
	default:
		return fmt.Sprintf("%s\t%s(%d)\n", host(), pick(".edu", ".com", ".att", ".mit"), cost)
	}
}

// TestPatchMatchesFullDerivation: after every step of a fixed-seed edit
// sequence over domain chains, subdomains, private hosts and aliases,
// a vantage's patched rows, and the frames a patch rebuilds down label
// chains, equal a full derivation over the same machine, and its rows
// equal a fresh run's.
func TestPatchMatchesFullDerivation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	opts := Options{LocalHost: "local"}
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	core := patchCoreMap
	var stmts []string
	inputs := func() []Input {
		return []Input{{Name: "core.map", Src: core}, {Name: "edits.map", Src: strings.Join(stmts, "")}}
	}
	const steps = 60
	warm := 0
	for step := 0; step <= steps; step++ {
		if step > 0 {
			switch r := rng.Intn(10); {
			case r < 6 || len(stmts) == 0:
				stmts = append(stmts, patchStatement(rng, step))
			case r < 9:
				k := rng.Intn(len(stmts))
				stmts = slices.Delete(stmts, k, k+1)
			default:
				from, to := "HOURLY", "DAILY"
				if rng.Intn(2) == 0 {
					from, to = to, from
				}
				core = strings.Replace(core, from, to, 1)
			}
		}
		in := inputs()
		res, err := update(m, in)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		label := fmt.Sprintf("step %d", step)
		checkEquivalent(t, opts, in, res, label)
		if res.Incremental {
			warm++
		}

		v := m.vans[m.def]
		frames := make([]printer.Frame, v.mc.NumLabels())
		entries, rows := printer.Derive(v.mc, opts.Printer, frames)
		if !slices.Equal(entries, v.entries) {
			t.Fatalf("%s: patched entries diverge from a full derivation\n got: %v\nwant: %v", label, v.entries, entries)
		}
		if !slices.Equal(rows, v.meta) {
			t.Fatalf("%s: patched rows diverge from a full derivation\n got: %v\nwant: %v", label, v.meta, rows)
		}
		// Every mapped label's frame, as a patch's chain rebuild yields
		// it, equals the full derivation's; later chains stop at frames
		// the earlier ones memoized.
		pass := routePass{mc: v.mc, frames: make(map[int32]printer.Frame)}
		for li := int32(len(frames)) - 1; li >= 0; li-- {
			if frames[li].Route == "" {
				continue
			}
			if got := pass.frame(li); got != frames[li] {
				t.Fatalf("%s: label %d chain-rebuilt frame %+v, full derivation %+v", label, li, got, frames[li])
			}
		}
	}
	if warm < steps/2 {
		t.Errorf("only %d of %d steps warm: the patch path went untested", warm, steps)
	}
	t.Logf("%d/%d steps warm, %d edit statements at the end", warm, steps, len(stmts))
}
