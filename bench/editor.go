package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"pathalias/internal/parser"
	"pathalias/internal/printer"
	"pathalias/internal/remap"
	"pathalias/internal/routedb"
)

// editor is the oracle for source edits. It holds its own copy of the
// map sources and an incremental engine over them, draws seeded edits,
// keeps only edits that change an answer the default vantage serves,
// and records every answer that must be served after each one.
type editor struct {
	tr       *tracer
	r        *rand.Rand
	eng      *remap.Multi
	local    string
	vantages []string // resident from= vantages besides the default
	names    []string // input names, as the daemon sees them
	srcs     []string
	core     []int // indexes of the core files edits may touch

	cur    []printer.Entry   // default vantage's routes now (a private copy)
	routes map[string]string // host → route of cur
	hosts  []string          // routed plain hosts of cur, sorted
	added  int

	bg []query // background sample whose answers each step records

	accepted []updateSample
	rejected int
}

// updateSample is what one accepted edit cost the engine.
type updateSample struct {
	wall       time.Duration // Multi.Update
	timing     remap.UpdateTiming
	scan       time.Duration // parser.ScanFragment of the edited file alone
	warm, full int           // vantage re-maps by path
}

// editStep is one accepted edit: the file to replace, its new content,
// and the answers the daemon must serve once the edit lands.
type editStep struct {
	kind     string // cost, add or remove
	file     int
	content  string
	probe    query  // a default-vantage query whose answer the edit changes
	oldReply string // its answer before the edit
	newReply string // and after
	hash     uint64 // digest of the default vantage's routes after the edit
	answers  []string
}

// newEditor builds the engine over the initial sources and makes the
// vantages resident.
func newEditor(tr *tracer, r *rand.Rand, names, srcs []string, local string, vantages []string) (*editor, error) {
	eng, err := remap.NewMulti(remap.Options{LocalHost: local})
	if err != nil {
		return nil, err
	}
	ed := &editor{tr: tr, r: r, eng: eng, local: local, vantages: vantages,
		names: names, srcs: append([]string(nil), srcs...)}
	for i, n := range names {
		if strings.HasPrefix(filepath.Base(n), "core") {
			ed.core = append(ed.core, i)
		}
	}
	if len(ed.core) == 0 {
		return nil, fmt.Errorf("editor: no core map files among %v", names)
	}
	var uerr error
	tr.do("remap.build", -1, 0, func() { uerr = eng.Update(ed.inputs()) })
	if uerr != nil {
		return nil, uerr
	}
	for _, v := range vantages {
		if _, err := eng.ResultFor(v); err != nil {
			return nil, fmt.Errorf("vantage %s: %w", v, err)
		}
	}
	res, err := eng.ResultFor(local)
	if err != nil {
		return nil, err
	}
	ed.adopt(res.Entries)
	return ed, nil
}

func (ed *editor) inputs() []remap.Input {
	ins := make([]remap.Input, len(ed.srcs))
	for i := range ed.srcs {
		ins[i] = remap.Input{Name: ed.names[i], Src: ed.srcs[i]}
	}
	return ins
}

// adopt makes entries the current default-vantage state. Entries come
// in name order, so hosts stays sorted.
func (ed *editor) adopt(entries []printer.Entry) {
	ed.cur = append(ed.cur[:0:0], entries...)
	ed.routes = make(map[string]string, len(entries))
	ed.hosts = ed.hosts[:0]
	for _, e := range ed.cur {
		ed.routes[e.Host] = e.Route
		if strings.HasPrefix(e.Host, "host") {
			ed.hosts = append(ed.hosts, e.Host)
		}
	}
}

// maxAttempts bounds how many drawn edits may fail to change any served
// answer before the editor gives up on a step.
const maxAttempts = 40

// step draws edits until one changes a default-vantage answer, applies
// it, and returns it with every answer that must be served afterwards.
func (ed *editor) step(k int) (*editStep, error) {
	for attempt := 0; attempt < maxAttempts; attempt++ {
		st, hint, ok := ed.propose()
		if !ok {
			continue
		}
		span := ed.tr.begin("edit", -1, int64(k))
		old := ed.srcs[st.file]
		ed.srcs[st.file] = st.content
		var sample updateSample
		ed.tr.do("parser.scan_file", span, int64(k), func() {
			t := time.Now()
			parser.ScanFragment(parser.Options{}, parser.Input{Name: ed.names[st.file], Src: st.content})
			sample.scan = time.Since(t)
		})
		before := ed.eng.Stats()
		var err error
		ed.tr.do("remap.update", span, int64(k), func() {
			t := time.Now()
			err = ed.eng.Update(ed.inputs())
			sample.wall = time.Since(t)
		})
		if err != nil {
			ed.tr.end(span)
			return nil, fmt.Errorf("edit %d: %w", k, err)
		}
		after := ed.eng.Stats()
		sample.timing = ed.eng.Timing()
		sample.warm = after.Incremental - before.Incremental
		sample.full = after.FullRemaps - before.FullRemaps

		res, err := ed.eng.ResultFor(ed.local)
		if err == nil {
			for _, v := range ed.vantages {
				if _, verr := ed.eng.ResultFor(v); verr != nil {
					err = verr
				}
			}
		}
		probe := ""
		if err == nil {
			probe = ed.changedHost(res.Entries, hint)
		}
		if probe == "" {
			// Not observable (or it broke a vantage): undo it.
			ed.srcs[st.file] = old
			ed.tr.do("remap.update", span, int64(k), func() { err = ed.eng.Update(ed.inputs()) })
			ed.tr.end(span)
			if err != nil {
				return nil, fmt.Errorf("edit %d undo: %w", k, err)
			}
			ed.rejected++
			continue
		}
		st.probe = query{dest: probe, user: users[ed.r.Intn(len(users))], kind: kindExact}
		st.oldReply = replies(ed.cur, []query{st.probe})[0]
		ed.adopt(res.Entries)
		st.newReply = replies(ed.cur, []query{st.probe})[0]
		st.hash = entriesHash(ed.cur)
		var aerr error
		ed.tr.do("routedb.answers", span, int64(k), func() { st.answers, aerr = ed.answers() })
		ed.tr.end(span)
		if aerr != nil {
			return nil, aerr
		}
		ed.accepted = append(ed.accepted, sample)
		return st, nil
	}
	return nil, fmt.Errorf("edit %d: no drawn edit changed a served answer in %d attempts", k, maxAttempts)
}

// Edit kinds are drawn 50% cost changes, 25% new hosts, 25% removed
// link lines: an assumed mix, not one measured from map histories, that
// puts a changed cost, a node appended at the end of a file and a link
// gone all on the measured path. Cost changes and removals hit a
// link the default vantage's routes use, so most of them move some
// route.
var (
	dearCosts = []string{"DAILY", "WEEKLY", "POLLED", "DAILY*2"}
	anyCosts  = []string{"DEMAND", "HOURLY", "DAILY", "DIRECT", "EVENING", "LOCAL"}
)

// propose draws one candidate edit and the host it should move.
func (ed *editor) propose() (st *editStep, hint string, ok bool) {
	switch p := ed.r.Float64(); {
	case p < 0.25:
		ci := ed.core[ed.r.Intn(len(ed.core))]
		from := ed.hosts[ed.r.Intn(len(ed.hosts))]
		ed.added++
		name := fmt.Sprintf("newhost%d", ed.added)
		line := fmt.Sprintf("%s\t%s(%s)\n", from, name, anyCosts[ed.r.Intn(len(anyCosts))])
		src := ed.srcs[ci]
		if !strings.HasSuffix(src, "\n") {
			src += "\n"
		}
		return &editStep{kind: "add", file: ci, content: src + line}, name, true
	case p < 0.75:
		fi, start, _, tok, to, ok := ed.treeLink(false)
		if !ok {
			return nil, "", false
		}
		src := ed.srcs[fi]
		cost := dearCosts[ed.r.Intn(len(dearCosts))]
		content := src[:start+tok.costStart] + cost + src[start+tok.costEnd:]
		return &editStep{kind: "cost", file: fi, content: content}, to, true
	default:
		fi, start, end, _, to, ok := ed.treeLink(true)
		if !ok {
			return nil, "", false
		}
		src := ed.srcs[fi]
		return &editStep{kind: "remove", file: fi, content: src[:start] + src[end:]}, to, true
	}
}

// treeLink picks a routed host and finds, in the core files, the line
// declaring the last link of its route. forRemoval excludes lines
// declared by the local host or a vantage, so no vantage loses its
// declarations. It returns the file, the line's byte range (end past
// its newline), the link token and the host the link reaches.
func (ed *editor) treeLink(forRemoval bool) (fi, start, end int, tok linkTok, to string, ok bool) {
	to = ed.hosts[ed.r.Intn(len(ed.hosts))]
	route := ed.routes[to]
	prefix, found := strings.CutSuffix(route, "!"+to+"!%s")
	if !found {
		if route != to+"!%s" {
			return 0, 0, 0, linkTok{}, "", false
		}
		prefix = ""
	}
	from := ed.local
	if prefix != "" {
		from = prefix[strings.LastIndexByte(prefix, '!')+1:]
	}
	if forRemoval && (from == ed.local || slices.Contains(ed.vantages, from)) {
		return 0, 0, 0, linkTok{}, "", false
	}
	head := from + "\t"
	for _, ci := range ed.core {
		src := ed.srcs[ci]
		for pos := 0; pos < len(src); {
			i := strings.Index(src[pos:], head)
			if i < 0 {
				break
			}
			s := pos + i
			pos = s + len(head)
			if s > 0 && src[s-1] != '\n' {
				continue
			}
			e := strings.IndexByte(src[s:], '\n')
			if e < 0 {
				e = len(src) - s
			}
			_, toks, lok := parseLinkLine(src[s : s+e])
			if !lok {
				continue
			}
			for _, t := range toks {
				if t.to == to {
					return ci, s, min(s+e+1, len(src)), t, to, true
				}
			}
		}
	}
	return 0, 0, 0, linkTok{}, "", false
}

// changedHost returns a plain host whose route differs between the
// current state and entries, preferring hint; "" if none.
func (ed *editor) changedHost(entries []printer.Entry, hint string) string {
	first := ""
	for _, e := range entries {
		if strings.HasPrefix(e.Host, ".") || ed.routes[e.Host] == e.Route {
			continue
		}
		if e.Host == hint {
			return hint
		}
		if first == "" {
			first = e.Host
		}
	}
	return first
}

// answers returns the reply every background query must get in the
// current state, vantage by vantage.
func (ed *editor) answers() ([]string, error) {
	out := make([]string, len(ed.bg))
	byVantage := make(map[string][]int)
	for i, q := range ed.bg {
		byVantage[q.from] = append(byVantage[q.from], i)
	}
	for _, from := range sortedNames(byVantage) {
		idx := byVantage[from]
		entries := ed.cur
		if from != "" {
			res, err := ed.eng.ResultFor(from)
			if err != nil {
				return nil, err
			}
			entries = res.Entries
		}
		qs := make([]query, len(idx))
		for j, i := range idx {
			qs[j] = ed.bg[i]
		}
		for j, rep := range replies(entries, qs) {
			out[idx[j]] = rep
		}
	}
	return out, nil
}

func (ed *editor) close() { ed.eng.Close() }

// replies answers queries the way a daemon serving entries must: it
// builds a resolver over the entries that can take part — each
// destination's own and every domain's — and formats the reply lines
// exactly as routed's line protocol does.
func replies(entries []printer.Entry, qs []query) []string {
	want := make(map[string]bool, len(qs))
	for _, q := range qs {
		want[q.dest] = true
	}
	var sub []printer.Entry
	for _, e := range entries {
		if want[e.Host] || strings.HasPrefix(e.Host, ".") {
			sub = append(sub, e)
		}
	}
	db := routedb.BuildWith(sub, routedb.Options{})
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = reply(db, q.dest, q.user)
	}
	return out
}

// reply is routed's line-protocol answer to "dest user" against db.
func reply(db *routedb.DB, dest, user string) string {
	res, err := db.Resolve(dest, user)
	if err != nil {
		return "err " + err.Error()
	}
	return "ok " + res.Address()
}

// entriesHash digests a route table, in order.
func entriesHash(entries []printer.Entry) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, e := range entries {
		buf = append(buf[:0], e.Host...)
		buf = append(buf, 0)
		buf = append(buf, e.Route...)
		buf = append(buf, 0)
		buf = strconv.AppendInt(buf, int64(e.Cost), 10)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	return h.Sum64()
}

// writeReplace replaces path with content the way careful editors and
// atomic writers do: write a temporary file in the same directory, then
// rename it over the original. The old file is never truncated, so a
// reader that has it mapped (routed -map maps its sources) keeps seeing
// intact old bytes instead of faulting on vanished pages. It is not
// atomicfile.Publish: the benchmark's inputs must not depend on a layer
// under test.
func writeReplace(path, content string) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.WriteString(content); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
