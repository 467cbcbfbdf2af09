// Package mapgen generates synthetic connectivity maps at the scale and
// with the structure of the 1986 network data pathalias was built for.
//
// The historical UUCP/USENET map files are not available here, so this
// generator is the documented substitute (DESIGN.md §3): "USENET maps
// contain over 5,700 nodes and 20,000 links, while ARPANET, CSNET, and
// BITNET add another 2,800 nodes and 8,000 links." The algorithms under
// test care about scale, sparsity (e ∝ v), and the feature mix — cliques
// compressed to networks, domain trees, aliases, passive leaf sites that
// need back links, private name collisions — all of which are generated
// here deterministically from a seed.
package mapgen

import (
	"fmt"
	"math/rand"
	"strings"

	"pathalias/internal/parser"
)

// Config sizes a synthetic map.
type Config struct {
	Seed int64

	// Core store-and-forward network (the USENET/UUCP side).
	Hosts int // hosts in the core
	Links int // directed link declarations among them (≥ Hosts-1)

	// Overlay networks (the ARPANET/CSNET/BITNET side).
	OverlayHosts int // hosts that live on overlay networks
	OverlayNets  int // number of overlay networks (cliques-as-hubs)
	OverlayLinks int // extra declarations tying overlays to the core

	// Structure features.
	Domains   int     // top-level domains, each with a small subtree
	Aliases   int     // alias pairs
	Privates  int     // private name collisions (pairs across two files)
	Passive   int     // hosts that only declare outbound links (need back links)
	RightFrac float64 // fraction of links using '@' RIGHT syntax

	// CoreFiles splits the core map across this many files (0 or 1: a
	// single core.map). The historical UUCP map was hundreds of
	// per-region files, and the parallel parser scans files
	// concurrently, so multi-file output is both more faithful and the
	// interesting case for parse benchmarks. Core statements are
	// one-per-line, so the split at line boundaries is semantically
	// neutral.
	CoreFiles int
}

// Default1986 returns the paper's data scale.
func Default1986() Config {
	return Config{
		Seed:         1986,
		Hosts:        5700,
		Links:        20000,
		OverlayHosts: 2800,
		OverlayNets:  3, // ARPANET, CSNET, BITNET
		OverlayLinks: 8000,
		Domains:      12,
		Aliases:      150,
		Privates:     25,
		Passive:      120,
		// UUCP core links essentially always use '!'; '@' syntax lives
		// at the overlay boundaries. A small residue reproduces the
		// paper's "fraction of a percent" penalized-route rate (E13).
		RightFrac: 0.02,
	}
}

// Small returns a quick configuration (a few hundred hosts) for tests.
func Small() Config {
	return Config{
		Seed:         42,
		Hosts:        400,
		Links:        1400,
		OverlayHosts: 150,
		OverlayNets:  2,
		OverlayLinks: 400,
		Domains:      3,
		Aliases:      12,
		Privates:     4,
		Passive:      10,
		RightFrac:    0.12,
	}
}

// Scaled returns a configuration with n core hosts and paper-like ratios,
// for parameter sweeps (E11).
func Scaled(n int, seed int64) Config {
	if n < 10 {
		n = 10
	}
	return Config{
		Seed:         seed,
		Hosts:        n,
		Links:        n * 7 / 2,
		OverlayHosts: n / 2,
		OverlayNets:  2,
		OverlayLinks: n,
		Domains:      max(1, n/500),
		Aliases:      n / 40,
		Privates:     max(0, n/250),
		Passive:      n / 50,
		RightFrac:    0.02,
		CoreFiles:    8, // a modern multi-file map set
	}
}

// costVocab is the vocabulary links draw from, weighted toward the grades
// real map files used most.
var costVocab = []string{
	"DEMAND", "DEMAND", "DIRECT", "HOURLY", "HOURLY", "HOURLY*2", "HOURLY*4",
	"EVENING", "DAILY", "DAILY/2", "POLLED", "WEEKLY", "LOCAL", "DEDICATED",
	"DEMAND+LOW", "HOURLY+HIGH",
}

// Generate produces the map as parser inputs (two files, so private
// scoping is exercised) plus the name of a well-connected host suitable as
// the local host.
func Generate(cfg Config) (inputs []parser.Input, localHost string) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var f1, f2 strings.Builder

	hostName := func(i int) string { return fmt.Sprintf("host%d", i) }
	localHost = hostName(0)

	f1.WriteString("# synthetic 1986-scale map (file 1: core + domains)\n")
	f2.WriteString("# synthetic 1986-scale map (file 2: overlays + collisions)\n")

	pick := func() string { return costVocab[rng.Intn(len(costVocab))] }
	opFor := func() string {
		if rng.Float64() < cfg.RightFrac {
			return "@"
		}
		return ""
	}

	// Core: a connected backbone (each host links to an earlier one,
	// preferring low-numbered hubs to get a realistic skewed degree
	// distribution), then extra random links up to the target count.
	passiveStart := cfg.Hosts - cfg.Passive
	links := 0
	var line strings.Builder
	for i := 1; i < cfg.Hosts; i++ {
		hub := rng.Intn(i)
		if rng.Intn(3) > 0 {
			hub = rng.Intn(min(i, 40)) // bias toward the backbone
		}
		if i >= passiveStart {
			// Passive host: it declares the link out, nobody declares
			// one in (back-link material). Declared from the passive
			// side only.
			fmt.Fprintf(&f1, "%s\t%s(%s)\n", hostName(i), hostName(hub), pick())
			links++
			continue
		}
		line.Reset()
		fmt.Fprintf(&line, "%s\t%s%s(%s)", hostName(hub), opFor(), hostName(i), pick())
		links++
		// A few extra links on the same line.
		for links < cfg.Links && rng.Intn(4) == 0 {
			fmt.Fprintf(&line, ", %s%s(%s)", opFor(), hostName(rng.Intn(cfg.Hosts-cfg.Passive)), pick())
			links++
		}
		f1.WriteString(line.String())
		f1.WriteByte('\n')
	}
	for links < cfg.Links {
		a := rng.Intn(passiveStart)
		b := rng.Intn(passiveStart)
		if a == b {
			continue
		}
		fmt.Fprintf(&f1, "%s\t%s%s(%s)\n", hostName(a), opFor(), hostName(b), pick())
		links++
	}

	// Domains: chains like .edu -> .uni0 -> campus hosts, gatewayed from
	// a core host.
	for d := 0; d < cfg.Domains; d++ {
		top := fmt.Sprintf(".dom%d", d)
		gw := hostName(rng.Intn(passiveStart))
		fmt.Fprintf(&f1, "%s\t%s(DEDICATED)\n", gw, top)
		nsub := 1 + rng.Intn(3)
		var subs []string
		for s := 0; s < nsub; s++ {
			sub := fmt.Sprintf(".sub%d-%d", d, s)
			subs = append(subs, sub)
		}
		fmt.Fprintf(&f1, "%s\t= {%s}\n", top, strings.Join(subs, ", "))
		for s, sub := range subs {
			nmem := 2 + rng.Intn(4)
			var mems []string
			for m := 0; m < nmem; m++ {
				mems = append(mems, fmt.Sprintf("dhost%d-%d-%d", d, s, m))
			}
			fmt.Fprintf(&f1, "%s\t= {%s}(LOCAL)\n", sub, strings.Join(mems, ", "))
		}
	}

	// Overlay networks: big member lists, a handful of gateways that are
	// also core hosts.
	overlayNames := []string{"ARPANET", "CSNET", "BITNET", "MAILNET", "JANET"}
	perNet := 0
	if cfg.OverlayNets > 0 {
		perNet = cfg.OverlayHosts / cfg.OverlayNets
	}
	onum := 0
	for n := 0; n < cfg.OverlayNets; n++ {
		net := overlayNames[n%len(overlayNames)]
		var members []string
		for m := 0; m < perNet; m++ {
			members = append(members, fmt.Sprintf("onet%d-h%d", n, m))
			onum++
		}
		// Two core gateways join each overlay.
		gw1 := hostName(rng.Intn(40))
		gw2 := hostName(rng.Intn(passiveStart))
		members = append(members, gw1, gw2)
		// Emit membership in chunks to keep lines reasonable.
		const chunk = 60
		for i := 0; i < len(members); i += chunk {
			end := min(i+chunk, len(members))
			fmt.Fprintf(&f2, "%s\t= @{%s}(DEDICATED)\n", net, strings.Join(members[i:end], ", "))
		}
		fmt.Fprintf(&f2, "gatewayed {%s}\n", net)
		fmt.Fprintf(&f2, "gateway {%s!%s, %s!%s}\n", net, gw1, net, gw2)
	}
	// Overlay cross links: overlay hosts talking UUCP to core hosts.
	for i := 0; i < cfg.OverlayLinks && onum > 0; i++ {
		n := rng.Intn(cfg.OverlayNets)
		m := rng.Intn(max(1, perNet))
		fmt.Fprintf(&f2, "onet%d-h%d\t%s(%s)\n", n, m, hostName(rng.Intn(passiveStart)), pick())
	}

	// Aliases.
	for i := 0; i < cfg.Aliases; i++ {
		h := rng.Intn(passiveStart)
		fmt.Fprintf(&f1, "%s\t= %s-aka\n", hostName(h), hostName(h))
	}

	// Private collisions: the same name used independently in both files.
	for i := 0; i < cfg.Privates; i++ {
		name := fmt.Sprintf("bilbo%d", i)
		fmt.Fprintf(&f1, "%s\t%s(%s)\n", name, hostName(rng.Intn(passiveStart)), pick())
		fmt.Fprintf(&f2, "private {%s}\n%s\t%s(%s)\n", name, name,
			fmt.Sprintf("onet0-h%d", rng.Intn(max(1, perNet))), pick())
	}

	// A little spice: dead links and adjustments, as real maps carry.
	for i := 0; i < cfg.Hosts/500; i++ {
		fmt.Fprintf(&f2, "adjust {%s(+%d)}\n", hostName(rng.Intn(passiveStart)), 10+rng.Intn(90))
	}

	inputs = splitCore(f1.String(), cfg.CoreFiles)
	inputs = append(inputs, parser.Input{Name: "overlay.map", Src: f2.String()})
	return inputs, localHost
}

// splitCore shards the core map text across n files at line boundaries.
// Every core statement occupies exactly one line (no trailing commas or
// backslash continuations are generated), and nothing in the core is
// file-scoped, so the split does not change the map's meaning.
func splitCore(src string, n int) []parser.Input {
	if n <= 1 {
		return []parser.Input{{Name: "core.map", Src: src}}
	}
	var out []parser.Input
	target := len(src)/n + 1
	for start := 0; start < len(src); {
		end := start + target
		if end >= len(src) {
			end = len(src)
		} else {
			nl := strings.IndexByte(src[end:], '\n')
			if nl < 0 {
				end = len(src)
			} else {
				end += nl + 1
			}
		}
		out = append(out, parser.Input{
			Name: fmt.Sprintf("core%d.map", len(out)),
			Src:  src[start:end],
		})
		start = end
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RouteNeutralEdit looks for one link cost to raise from HOURLY to
// WEEKLY that leaves routes — the caller's rendering of every route it
// cares about, such as each vantage's table from a fresh run —
// byte-identical: an effective edit that moves none of those routes. It
// returns the edited input's index and its new source, or ok false if
// no such edit exists.
func RouteNeutralEdit(inputs []parser.Input, routes func([]parser.Input) string) (file int, src string, ok bool) {
	want := routes(inputs)
	for i, in := range inputs {
		for off := 0; ; {
			k := strings.Index(in.Src[off:], "(HOURLY)")
			if k < 0 {
				break
			}
			off += k + 1
			src := in.Src[:off] + "WEEKLY" + in.Src[off+len("HOURLY"):]
			edited := append([]parser.Input(nil), inputs...)
			edited[i].Src = src
			if routes(edited) == want {
				return i, src, true
			}
		}
	}
	return 0, "", false
}
