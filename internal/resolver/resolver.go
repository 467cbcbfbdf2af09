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
// A Resolver is immutable after New and safe for any number of concurrent
// readers with no locking. Per-resolver counters (see Stats) are updated
// atomically and are the only mutable state.
package resolver

import (
	"fmt"
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
// indices are positions in that order. A Backing must be safe for
// concurrent readers.
type Backing interface {
	// Len returns the number of entries.
	Len() int
	// EntryAt returns entry i, 0 ≤ i < Len(). The returned strings must
	// remain valid for the caller's lifetime (implementations over
	// transient storage copy them out).
	EntryAt(i int) Entry
	// LookupExact finds the entry whose (already normalized) name is
	// key.
	LookupExact(key string) (int, bool)
	// SuffixBest descends the reversed-label suffix trie: labels are a
	// destination's dot-separated labels, and depths 1..maxDepth are
	// considered, where depth d means the suffix formed by the last d
	// labels (with a leading dot). It returns the deepest entry found
	// and its depth, or (-1, 0).
	SuffixBest(labels []string, maxDepth int) (entry, depth int)
}

// Resolver is an immutable route index.
type Resolver struct {
	opts Options
	b    Backing
	ab   AppendBacking // b's byte-keyed fast path, nil if unimplemented

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

// New builds a resolver from entries. The slice is not retained; entry
// names are normalized like query keys (one trailing dot dropped, case
// folded under FoldCase), then sorted and deduplicated keeping the
// cheapest route per name (ties keep the first seen, matching the
// classic sort order). Entries that are already normalized and strictly
// ascending — what the pipeline's producers emit — are indexed in one
// linear pass with no sort.
func New(entries []Entry, opts Options) *Resolver {
	return Adopt(append([]Entry(nil), entries...), opts)
}

// Adopt is New for a caller that hands its entries over: the slice is
// retained as the index's storage instead of copied, and may be
// reordered and modified. The caller must not use it afterwards.
func Adopt(entries []Entry, opts Options) *Resolver {
	return NewBacked(newMemBacking(canonicalize(entries, opts.FoldCase)), opts)
}

// NewBacked wraps an existing index — typically a mapped route database
// file — in a Resolver. opts must describe how the backing's entry
// names were normalized when it was built (FoldCase in particular), so
// query keys fold the same way.
func NewBacked(b Backing, opts Options) *Resolver {
	r := &Resolver{opts: opts, b: b}
	r.ab, _ = b.(AppendBacking)
	return r
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
// to the first empty slot.
func (m *memBacking) LookupExact(key string) (int, bool) {
	return lookupSlots(m, key)
}

// lookupSlots is LookupExact for either key type; the string(key)
// comparison compiles to an allocation-free compare for []byte keys.
func lookupSlots[K string | []byte](m *memBacking, key K) (int, bool) {
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
// deepest node with an entry wins.
func (m *memBacking) SuffixBest(labels []string, maxDepth int) (entry, depth int) {
	best, bestDepth := -1, 0
	n := m.suffix
	for d := 1; d <= maxDepth; d++ {
		n = n.children[labels[len(labels)-d]]
		if n == nil {
			break
		}
		if n.entry >= 0 {
			best, bestDepth = n.entry, d
		}
	}
	return best, bestDepth
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
// New or Adopt both come straight from it; for any other backing the
// slot table is built from Entries. Callers must not modify either.
func (r *Resolver) Index() (entries []Entry, slots []uint32) {
	if m, ok := r.b.(*memBacking); ok {
		return m.entries, m.slots
	}
	es := r.Entries()
	return es, hashSlots(es)
}

// Backing returns the index the resolver serves from.
func (r *Resolver) Backing() Backing { return r.b }

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

func (r *Resolver) normalize(name string) string {
	return normalizeKey(name, r.opts.FoldCase)
}

// Lookup finds the route for an exact name.
func (r *Resolver) Lookup(host string) (Entry, bool) {
	r.nLookups.Inc()
	i, ok := r.b.LookupExact(r.normalize(host))
	if !ok {
		return Entry{}, false
	}
	return r.b.EntryAt(i), true
}

// lookupSuffix finds the longest proper domain suffix of dest with a
// route: for "caip.rutgers.edu" it considers ".rutgers.edu" then ".edu"
// (never ".caip.rutgers.edu" — the whole name is the exact match's job,
// hence maxDepth = len(labels)-1). dest must already be normalized; a
// leading dot is ignored for label splitting, matching the classic walk.
func (r *Resolver) lookupSuffix(dest string) (Entry, string, bool) {
	name := strings.TrimPrefix(dest, ".")
	labels := strings.Split(name, ".")
	if len(labels) < 2 {
		return Entry{}, "", false
	}
	best, bestDepth := r.b.SuffixBest(labels, len(labels)-1)
	if best < 0 {
		return Entry{}, "", false
	}
	return r.b.EntryAt(best), "." + strings.Join(labels[len(labels)-bestDepth:], "."), true
}

// Resolve routes user mail to dest: exact match first, then the domain
// suffix search. With a suffix match the argument becomes "dest!user", a
// route relative to the domain gateway. Destinations are normalized the
// same way as Lookup keys, and the normalized form is what appears in the
// suffix argument.
func (r *Resolver) Resolve(dest, user string) (Resolution, error) {
	key := r.normalize(dest)
	if i, ok := r.b.LookupExact(key); ok {
		r.nHits.Inc()
		return Resolution{Entry: r.b.EntryAt(i), Matched: key, Argument: user}, nil
	}
	if e, matched, ok := r.lookupSuffix(key); ok {
		r.nSuffixHits.Inc()
		return Resolution{
			Entry:     e,
			Matched:   matched,
			Argument:  key + "!" + user,
			ViaSuffix: true,
		}, nil
	}
	r.nMisses.Inc()
	return Resolution{}, fmt.Errorf("routedb: no route to %q", dest)
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
