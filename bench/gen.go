package main

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pathalias/internal/mapgen"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
)

// hostNames returns the route table's destination names.
func hostNames(entries []printer.Entry) []string {
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Host
	}
	return names
}

// newRand returns the deterministic generator for one named input
// stream of a seed. Streams are independent, so adding a draw to one
// never shifts another.
func newRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// Map sizes. The lookup image (200k core hosts, ~310k routes, ~34 MB)
// is far larger than the CPU caches, so where the skewed queries land
// decides how often a lookup misses cache; the edit map (50k core hosts,
// ~77k routes) is the one the incremental engine's warm-path figures
// have always been quoted at; the paper-scale map is the 1986 network
// the paper describes (~8.5k hosts, ~28k links).
func bigMap(seed int64) mapgen.Config  { return mapgen.Scaled(200000, seed) }
func editMap(seed int64) mapgen.Config { return mapgen.Scaled(50000, seed) }
func paperMap(seed int64) mapgen.Config {
	cfg := mapgen.Default1986()
	cfg.Seed = seed
	return cfg
}

// writeMap writes the generated map files into dir and returns their
// paths in input order.
func writeMap(dir string, ins []parser.Input) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, len(ins))
	for i, in := range ins {
		paths[i] = filepath.Join(dir, in.Name)
		if err := os.WriteFile(paths[i], []byte(in.Src), 0o644); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// Query kinds of a lookup stream.
const (
	kindExact  = iota // a host with a route of its own
	kindSuffix        // a name under a domain: answered through the domain's gateway
	kindMiss          // a name nothing routes to
	numKinds
)

var kindNames = [numKinds]string{"exact", "suffix", "miss"}

// query is one resolve request of the line protocol.
type query struct {
	from string // vantage host, "" for the daemon's default
	dest string
	user string
	kind int
}

func (q query) line() string {
	if q.from != "" {
		return "from=" + q.from + " " + q.dest + " " + q.user
	}
	return q.dest + " " + q.user
}

var users = []string{"honey", "lou", "pleasant", "ber", "peter", "steve", "postmaster", "root"}

// zipfS is the skew of every popularity draw. It is an assumption, not
// a measurement of mail traffic: traces of web requests and DNS lookups
// show Zipf-like name popularity (README.md cites them), with exponents
// mostly below 1; 1.1 is steeper, so a few names take most requests
// while the long tail still misses the CPU caches.
const zipfS = 1.1

// queryStream draws n requests over the names of a route table: 80%
// exact hosts, Zipf-skewed over a seeded popularity order; 15% names
// under a domain (relayN.x.<domain>), answered through the domain's
// gateway by the suffix search; 5% names that nothing routes to. The
// shares are assumptions chosen to exercise all three resolver paths,
// with exact hits the common case; no measured mailer traffic backs
// them.
func queryStream(r *rand.Rand, names []string, n int) []query {
	var hosts, domains []string
	for _, name := range names {
		if strings.HasPrefix(name, ".") {
			domains = append(domains, name)
		} else {
			hosts = append(hosts, name)
		}
	}
	sort.Strings(hosts)
	sort.Strings(domains)
	r.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	z := rand.NewZipf(r, zipfS, 1, uint64(len(hosts)-1))
	out := make([]query, n)
	for i := range out {
		q := query{user: users[r.Intn(len(users))]}
		switch p := r.Float64(); {
		case p < 0.80 || len(domains) == 0:
			q.kind, q.dest = kindExact, hosts[z.Uint64()]
		case p < 0.95:
			q.kind = kindSuffix
			q.dest = fmt.Sprintf("relay%d.x%s", r.Intn(10000), domains[r.Intn(len(domains))])
		default:
			q.kind = kindMiss
			q.dest = fmt.Sprintf("nohost%d.zz", r.Intn(1000000))
		}
		out[i] = q
	}
	return out
}

// linkTok is one link declaration on a map line: "[@]to(COST)", with the
// byte offsets of COST within the line.
type linkTok struct {
	to                 string
	costStart, costEnd int
}

// parseLinkLine splits a generated link line "from\t[@]a(COST), [@]b(COST)"
// into its source host and link tokens. Alias, network and keyword lines
// report ok=false.
func parseLinkLine(line string) (from string, toks []linkTok, ok bool) {
	tab := strings.IndexByte(line, '\t')
	if tab <= 0 || strings.ContainsAny(line[:tab], " {}") {
		return "", nil, false
	}
	from = line[:tab]
	pos := tab + 1
	if pos < len(line) && line[pos] == '=' {
		return "", nil, false
	}
	for pos < len(line) {
		if line[pos] == '@' {
			pos++
		}
		open := strings.IndexByte(line[pos:], '(')
		if open < 0 {
			return "", nil, false
		}
		closeAt := strings.IndexByte(line[pos+open:], ')')
		if closeAt < 0 {
			return "", nil, false
		}
		toks = append(toks, linkTok{to: line[pos : pos+open], costStart: pos + open + 1, costEnd: pos + open + closeAt})
		pos += open + closeAt + 1
		if strings.HasPrefix(line[pos:], ", ") {
			pos += 2
		} else {
			break
		}
	}
	return from, toks, len(toks) > 0
}

// link is one declared directed link.
type link struct{ from, to string }

// allLinks lists the host-to-host links declared across map sources.
// Links touching a private name are left out: a private host is scoped
// to its file, so a what-if question cannot name it unambiguously.
func allLinks(srcs []string) []link {
	private := make(map[string]bool)
	for _, src := range srcs {
		for _, line := range strings.Split(src, "\n") {
			if names, ok := strings.CutPrefix(line, "private {"); ok {
				for _, n := range strings.Split(strings.TrimSuffix(names, "}"), ",") {
					private[strings.TrimSpace(n)] = true
				}
			}
		}
	}
	var out []link
	for _, src := range srcs {
		for _, line := range strings.Split(src, "\n") {
			from, toks, ok := parseLinkLine(line)
			if !ok || private[from] {
				continue
			}
			for _, t := range toks {
				if !strings.HasPrefix(t.to, ".") && !private[t.to] {
					out = append(out, link{from, t.to})
				}
			}
		}
	}
	return out
}

// specPoolSize is how many distinct what-if specs the whatif workload
// draws from: eight times the daemon's 32-entry overlay cache, so cold
// questions are spread over many different overlays. It models no
// observed operator behaviour.
const specPoolSize = 256

// specPool draws n distinct overlay specs, in the line protocol's comma
// form, over real links of the map: a third "dead a b", a third
// "cost a b EXPR" and a third "link a c N" adding a link from a host
// that has links to one it has none to. Questions about links that do
// not exist are answered without mapping anything, so drawing from
// real links is what makes a cold question cost a mapping run.
func specPool(r *rand.Rand, links []link, n int) []string {
	declared := make(map[link]bool, len(links))
	var hosts []string
	for _, l := range links {
		if !declared[link{l.from, ""}] {
			declared[link{l.from, ""}] = true
			hosts = append(hosts, l.from)
		}
		declared[l] = true
	}
	seen := make(map[string]bool, n)
	var out []string
	for len(out) < n {
		l := links[r.Intn(len(links))]
		var spec string
		switch r.Intn(3) {
		case 0:
			spec = "dead," + l.from + "," + l.to
		case 1:
			spec = "cost," + l.from + "," + l.to + "," + []string{"DAILY", "WEEKLY", "POLLED", "EVENING*2"}[r.Intn(4)]
		default:
			to := hosts[r.Intn(len(hosts))]
			if to == l.from || declared[link{l.from, to}] {
				continue
			}
			spec = fmt.Sprintf("link,%s,%s,%d", l.from, to, []int{10, 25, 100}[r.Intn(3)])
		}
		if !seen[spec] {
			seen[spec] = true
			out = append(out, spec)
		}
	}
	return out
}

// wquery is one what-if request: an overlay from the pool, a
// destination, and alternates to fall back on when the destination is
// unreachable under the overlay (so no reply is an error).
type wquery struct {
	spec  int
	dests []string
	user  string
}

// coldEvery makes every coldEvery-th what-if question cold: its spec is
// not in the daemon's overlay cache, so answering it is a mapping run.
// The share is an assumption, fixed by construction rather than left to
// the draw, so that every seed asks the same number of cold questions
// and the numbers measure the build, not how the seed's draw fell.
const coldEvery = 3

// whatifStream draws n what-if requests, destinations uniform over the
// routed hosts. Specs are drawn Zipf-skewed over the pool and re-drawn
// until they have the state the question's position asks for: cold
// (not among the cacheSize specs asked most recently) for the first
// question and every coldEvery-th after it, cached for the rest.
func whatifStream(r *rand.Rand, poolSize, cacheSize int, hosts []string, n int) []wquery {
	z := rand.NewZipf(r, zipfS, 1, uint64(poolSize-1))
	recent := list.New() // spec indexes, most recently asked first
	at := make(map[int]*list.Element)
	out := make([]wquery, n)
	for i := range out {
		cold := i%coldEvery == 0
		spec := int(z.Uint64())
		for _, cached := at[spec]; cached == cold; _, cached = at[spec] {
			spec = int(z.Uint64())
		}
		if el, ok := at[spec]; ok {
			recent.MoveToFront(el)
		} else {
			at[spec] = recent.PushFront(spec)
			if recent.Len() > cacheSize {
				delete(at, recent.Remove(recent.Back()).(int))
			}
		}
		q := wquery{spec: spec, user: users[r.Intn(len(users))]}
		for j := 0; j < 4; j++ {
			q.dests = append(q.dests, hosts[r.Intn(len(hosts))])
		}
		out[i] = q
	}
	return out
}
