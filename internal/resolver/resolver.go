// Package resolver is the retrieval side of pathalias: an immutable,
// concurrency-safe route index with the paper's exact-then-domain-suffix
// resolution procedure.
//
// The paper: "To route to caip.rutgers.edu!pleasant, a mailer first
// searches the route list for caip.rutgers.edu; if found, the mailer uses
// argument pleasant .... Otherwise, a search for .rutgers.edu, followed by
// a search for .edu, produces seismo!%s, the route to the .edu gateway.
// The argument here is not pleasant ..., it is caip.rutgers.edu!pleasant."
//
// Where the classic implementation re-searches the sorted route list once
// per candidate suffix, this package indexes the leading-dot entries in a
// reversed-label suffix trie, so the whole ".rutgers.edu → .edu" cascade
// is a single trie descent over the destination's labels. Exact matches
// use an open-addressed hash table of entry indices laid out exactly as
// package rdb's hash section (KeyHash, power-of-two slots at ≤ 0.5 load,
// linear probing, filled in entry order), so a built index compiles into
// an image without being indexed again (Index). The sorted entry slice
// is kept for ordered iteration (WriteTo) and as the canonical storage.
// Entries that arrive already normalized and sorted — as every producer
// in the pipeline emits them — are indexed in one linear pass.
//
// The procedure is written once, over byte keys: Lookup, Resolve and
// the serving path's allocation-free AppendResolve all run it, against
// either Backing — the in-memory index or a compiled image (package
// rdb) — so every query answers the same through every entry point.
//
// A Resolver is immutable after New and safe for any number of concurrent
// readers with no locking. Per-resolver counters (see Stats) are updated
// atomically and are the only mutable state.
package resolver

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"

	"pathalias/internal/cost"
	"pathalias/internal/obs"
)

// Entry is one route: a destination name and the printf-style format
// string that reaches it. Names beginning with '.' are domain-suffix
// entries (gateways).
type Entry struct {
	Host  string    `json:"host"`
	Route string    `json:"route"`
	Cost  cost.Cost `json:"cost"`
}

// Options configure index construction.
type Options struct {
	// FoldCase lower-cases entry names at build time and lookup keys at
	// query time, matching a map built with pathalias -i (IgnoreCase).
	FoldCase bool
}

// Resolution explains how a destination was resolved.
type Resolution struct {
	Entry     Entry  // the route used
	Matched   string // the database key that matched
	Argument  string // what to substitute for %s
	ViaSuffix bool   // true if a domain-suffix search was used
}

// Address renders the finished address.
func (r Resolution) Address() string {
	return strings.Replace(r.Entry.Route, "%s", r.Argument, 1)
}

// Stats is a snapshot of a resolver's query counters.
type Stats struct {
	Lookups    uint64 // exact Lookup calls
	Resolves   uint64 // Resolve calls
	Hits       uint64 // resolves answered by an exact match
	SuffixHits uint64 // resolves answered by the suffix trie
	Misses     uint64 // resolves with no route
}

// Backing is the index a Resolver serves from. Two implementations
// exist: the in-memory arrays New builds (slot table + pointer trie), and
// package rdb's reader over the mapped sections of a compiled route
// database file — the resolution procedure on top is identical.
//
// Entry names visible through a Backing are already normalized (one
// trailing dot dropped, case folded when the index was built with
// FoldCase) and strictly sorted ascending by name with no duplicates;
// indices are positions in that order. Keys and labels are bytes, so
// the serving path probes without converting. A Backing must be safe
// for concurrent readers and must not retain the key or label slices
// it is handed.
type Backing interface {
	// Len returns the number of entries.
	Len() int
	// EntryAt returns entry i, 0 ≤ i < Len(). The returned strings must
	// remain valid for the caller's lifetime (implementations over
	// transient storage copy them out).
	EntryAt(i int) Entry
	// LookupExact finds the entry whose (already normalized) name is
	// key.
	LookupExact(key []byte) (int, bool)
	// SuffixBest descends the reversed-label suffix trie: labels are a
	// destination's dot-separated labels, and depths 1..maxDepth are
	// considered, where depth d means the suffix formed by the last d
	// labels (with a leading dot). It returns the deepest entry found
	// and its depth, or (-1, 0).
	SuffixBest(labels [][]byte, maxDepth int) (entry, depth int)
	// AppendRoute appends entry i's route to dst with arg spliced in
	// place of the first %s marker (the whole route when there is no
	// marker), returning the extended buffer. The appended bytes must
	// not alias the backing's storage.
	AppendRoute(dst []byte, i int, arg []byte) []byte
}

// Resolver is an immutable route index.
type Resolver struct {
	opts Options
	b    Backing

	// entries materializes the sorted entry slice on first use, for
	// backings (mapped files) that don't hold one natively.
	entriesOnce sync.Once
	entries     []Entry

	// Each query does exactly one counter increment (Resolves is derived
	// in Stats), and each counter is cache-line padded and sharded
	// (obs.Counter), to keep the concurrent hot path free of shared-line
	// contention.
	nLookups    obs.Counter
	nHits       obs.Counter
	nSuffixHits obs.Counter
	nMisses     obs.Counter
}

// memBacking is the built-in-memory index: sorted entries, an
// open-addressed exact-match table in rdb's hash-section layout, and a
// reversed-label pointer trie for suffixes.
type memBacking struct {
	entries []Entry   // sorted by Host, unique
	slots   []uint32  // exact-match table: entry index + 1, 0 = empty (see hashSlots)
	suffix  *trieNode // reversed-label trie over leading-dot entries

	// canon records that entries arrived canonical and are indexed in
	// place. Names canonicalize made may not be: normalizeKey drops only
	// one trailing dot, so "a.." becomes "a.", which is not normalized.
	canon bool
}

// trieNode is one level of the reversed-label suffix trie. The entry
// ".rutgers.edu" lives at children["edu"].children["rutgers"].
type trieNode struct {
	children map[string]*trieNode
	entry    int // index into entries, or -1
}

func newTrieNode() *trieNode {
	return &trieNode{entry: -1}
}

// New builds a resolver from entries, which it never writes. Entry
// names are normalized like query keys (one trailing dot dropped, case
// folded under FoldCase), then sorted and deduplicated keeping the
// cheapest route per name (ties keep the first seen, matching the
// classic sort order). Entries that are already canonical — normalized
// and strictly ascending, what the pipeline's producers emit — are
// indexed in place: one read-only pass decides, the slice is retained
// as the index's storage, and the caller must not write it afterwards.
// Anything else is copied, and the copy canonicalized.
func New(entries []Entry, opts Options) *Resolver {
	if canonical(entries, opts.FoldCase) {
		m := newMemBacking(entries)
		m.canon = true
		return NewBacked(m, opts)
	}
	return NewBacked(newMemBacking(canonicalize(slices.Clone(entries), opts.FoldCase)), opts)
}

// NewBacked wraps an existing index — typically a mapped route database
// file — in a Resolver. opts must describe how the backing's entry
// names were normalized when it was built (FoldCase in particular), so
// query keys fold the same way.
func NewBacked(b Backing, opts Options) *Resolver {
	return &Resolver{opts: opts, b: b}
}

// insertSuffix threads a leading-dot entry into the trie by its labels,
// last label first.
func (m *memBacking) insertSuffix(name string, idx int) {
	labels := strings.Split(name[1:], ".")
	n := m.suffix
	for i := len(labels) - 1; i >= 0; i-- {
		if n.children == nil {
			n.children = make(map[string]*trieNode)
		}
		child := n.children[labels[i]]
		if child == nil {
			child = newTrieNode()
			n.children[labels[i]] = child
		}
		n = child
	}
	n.entry = idx
}

func (m *memBacking) Len() int            { return len(m.entries) }
func (m *memBacking) EntryAt(i int) Entry { return m.entries[i] }

// LookupExact probes the slot table linearly from the key's home slot
// to the first empty slot. The string(key) comparison compiles to an
// allocation-free compare.
func (m *memBacking) LookupExact(key []byte) (int, bool) {
	if len(m.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(m.slots) - 1)
	for s := KeyHash(key) & mask; ; s = (s + 1) & mask {
		v := m.slots[s]
		if v == 0 {
			return 0, false
		}
		if m.entries[v-1].Host == string(key) {
			return int(v - 1), true
		}
	}
}

// SuffixBest walks the pointer trie by labels from the right; the
// deepest node with an entry wins. Indexing the maps with
// string(label) does not allocate.
func (m *memBacking) SuffixBest(labels [][]byte, maxDepth int) (entry, depth int) {
	best, bestDepth := -1, 0
	n := m.suffix
	for d := 1; d <= maxDepth; d++ {
		n = n.children[string(labels[len(labels)-d])]
		if n == nil {
			break
		}
		if n.entry >= 0 {
			best, bestDepth = n.entry, d
		}
	}
	return best, bestDepth
}

// AppendRoute splices arg into entry i's route exactly as
// Resolution.Address's strings.Replace(route, "%s", arg, 1) does.
func (m *memBacking) AppendRoute(dst []byte, i int, arg []byte) []byte {
	route := m.entries[i].Route
	j := strings.Index(route, "%s")
	if j < 0 {
		return append(dst, route...)
	}
	dst = append(dst, route[:j]...)
	dst = append(dst, arg...)
	return append(dst, route[j+2:]...)
}

// Len returns the number of routes.
func (r *Resolver) Len() int { return r.b.Len() }

// Entries returns the sorted entries; callers must not modify the
// slice. For a mapped backing the slice is materialized once, on first
// use, so a resolver that only ever answers queries never pays for it.
func (r *Resolver) Entries() []Entry {
	r.entriesOnce.Do(func() {
		if m, ok := r.b.(*memBacking); ok {
			r.entries = m.entries
			return
		}
		es := make([]Entry, r.b.Len())
		for i := range es {
			es[i] = r.b.EntryAt(i)
		}
		r.entries = es
	})
	return r.entries
}

// Index returns the canonical entries and the exact-match slot table
// (package rdb's hash-section layout; see hashSlots) — everything an
// image compiler needs besides the suffix trie. For an index built by
// New both come straight from it; for any other backing the
// slot table is built from Entries. Callers must not modify either.
func (r *Resolver) Index() (entries []Entry, slots []uint32) {
	if m, ok := r.b.(*memBacking); ok {
		return m.entries, m.slots
	}
	es := r.Entries()
	return es, hashSlots(es)
}

// Options returns the options the resolver was built with.
func (r *Resolver) Options() Options { return r.opts }

// normalizeKey canonicalizes a name on both sides of the index — entry
// names at build time and query keys at lookup time: one trailing dot is
// dropped ("rutgers.edu." is the absolute spelling of "rutgers.edu"),
// and case is folded if requested.
func normalizeKey(name string, fold bool) string {
	if strings.HasSuffix(name, ".") && len(name) > 1 {
		name = name[:len(name)-1]
	}
	if fold {
		name = strings.ToLower(name)
	}
	return name
}

// find is the paper's retrieval procedure, the one behind Lookup,
// Resolve and AppendResolve. dest is normalized like an entry name
// (normalizeKey) into s.key: one trailing dot dropped, and under
// FoldCase ASCII folded byte by byte — strings.ToLower only for
// non-ASCII, where folding is not byte-local. The key is then looked
// up exactly and, when resolve is set and that misses, the longest
// proper domain suffix with a route is searched for: for
// "caip.rutgers.edu" that is ".rutgers.edu" then ".edu", never
// ".caip.rutgers.edu" — the whole name is the exact match's job, hence
// maxDepth = len(labels)-1. One leading dot is ignored for label
// splitting, matching the classic walk.
//
// find returns the normalized key (aliasing dest or s.key), the entry
// found or -1, and the matched suffix's depth in labels (0 for an
// exact match), and bumps the one counter the outcome names.
func (r *Resolver) find(dest []byte, s *Scratch, resolve bool) (key []byte, entry, depth int) {
	key = dest
	if n := len(key); n > 1 && key[n-1] == '.' {
		key = key[:n-1]
	}
	if r.opts.FoldCase {
		if isASCII(key) {
			s.key = appendFoldASCII(s.key[:0], key)
		} else {
			s.key = append(s.key[:0], strings.ToLower(string(key))...)
		}
		key = s.key
	}

	i, ok := r.b.LookupExact(key)
	switch {
	case !resolve:
		r.nLookups.Inc()
		if !ok {
			i = -1
		}
		return key, i, 0
	case ok:
		r.nHits.Inc()
		return key, i, 0
	}
	name := key
	if len(name) > 0 && name[0] == '.' {
		name = name[1:]
	}
	s.labels = appendLabels(s.labels[:0], name)
	if len(s.labels) >= 2 {
		if best, d := r.b.SuffixBest(s.labels, len(s.labels)-1); best >= 0 {
			r.nSuffixHits.Inc()
			return key, best, d
		}
	}
	r.nMisses.Inc()
	return key, -1, 0
}

// suffixOf returns the last depth labels of key with their leading
// dot: the name of the domain-suffix entry a depth-deep match found.
func suffixOf(key []byte, depth int) []byte {
	i := len(key)
	for ; depth > 0; depth-- {
		i = bytes.LastIndexByte(key[:i], '.')
	}
	return key[i:]
}

// Lookup finds the route for an exact name.
func (r *Resolver) Lookup(host string) (Entry, bool) {
	var s Scratch
	if _, i, _ := r.find([]byte(host), &s, false); i >= 0 {
		return r.b.EntryAt(i), true
	}
	return Entry{}, false
}

// Resolve routes user mail to dest: exact match first, then the domain
// suffix search. With a suffix match the argument becomes "dest!user", a
// route relative to the domain gateway. Destinations are normalized the
// same way as Lookup keys, and the normalized form is what appears in the
// suffix argument.
func (r *Resolver) Resolve(dest, user string) (Resolution, error) {
	var s Scratch
	key, i, depth := r.find([]byte(dest), &s, true)
	if i < 0 {
		return Resolution{}, fmt.Errorf("routedb: no route to %q", dest)
	}
	if depth == 0 {
		return Resolution{Entry: r.b.EntryAt(i), Matched: string(key), Argument: user}, nil
	}
	return Resolution{
		Entry:     r.b.EntryAt(i),
		Matched:   string(suffixOf(key, depth)),
		Argument:  string(key) + "!" + user,
		ViaSuffix: true,
	}, nil
}

// Stats returns a snapshot of the query counters. Resolves is derived
// from the outcome counters, so a snapshot taken mid-query is internally
// consistent.
func (r *Resolver) Stats() Stats {
	hits := r.nHits.Load()
	suffix := r.nSuffixHits.Load()
	misses := r.nMisses.Load()
	return Stats{
		Lookups:    r.nLookups.Load(),
		Resolves:   hits + suffix + misses,
		Hits:       hits,
		SuffixHits: suffix,
		Misses:     misses,
	}
}
