package resolver

import (
	"bytes"
	"strings"
)

// This file is the serving hot path's allocation-free twin of Resolve:
// the daemon answers millions of line-protocol requests, and building a
// Resolution (three strings plus the final strings.Replace) costs several
// allocations per request. AppendResolve instead splices the route
// template around the user bytes straight into a caller-supplied buffer —
// for a mapped backing, copied directly off the database file's pages —
// so a steady-state request allocates nothing.

// Scratch holds the reusable buffers one AppendResolve caller thread
// needs (key normalization, label splitting, the suffix argument). A
// Scratch is not safe for concurrent use; keep one per connection or
// goroutine (they pool well) and reuse it across calls.
type Scratch struct {
	key    []byte   // case-folded destination key
	labels [][]byte // destination label split
	arg    []byte   // suffix argument: key + "!" + user
}

// AppendBacking is the optional fast path a Backing can implement: the
// same index operations keyed by bytes instead of strings, plus route
// splicing by append. Both built-in backings (the in-memory index and
// package rdb's mapped reader) implement it; a Backing that does not is
// served through the allocating string path.
type AppendBacking interface {
	// LookupExactBytes is LookupExact with a byte key.
	LookupExactBytes(key []byte) (int, bool)
	// SuffixBestBytes is SuffixBest with byte labels.
	SuffixBestBytes(labels [][]byte, maxDepth int) (entry, depth int)
	// AppendRoute appends entry i's route to dst with arg spliced in
	// place of the first %s marker (the whole route when there is no
	// marker), returning the extended buffer. The appended bytes must
	// not alias the backing's storage.
	AppendRoute(dst []byte, i int, arg []byte) []byte
}

// isASCII reports whether b has no byte with the high bit set — the
// precondition for byte-at-a-time case folding to match strings.ToLower.
func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// appendFoldASCII appends s to dst with ASCII upper case folded to lower.
func appendFoldASCII(dst, s []byte) []byte {
	for _, c := range s {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// appendLabels splits name on '.' into labels, mirroring
// strings.Split: at least one (possibly empty) label always results.
func appendLabels(labels [][]byte, name []byte) [][]byte {
	for {
		i := bytes.IndexByte(name, '.')
		if i < 0 {
			return append(labels, name)
		}
		labels = append(labels, name[:i])
		name = name[i+1:]
	}
}

// AppendResolve resolves dest for user — the same procedure and the
// same counters as Resolve — and appends the finished address to dst,
// returning the extended buffer and whether a route was found. On a
// miss dst is returned unchanged. Queries that the byte path cannot
// reproduce exactly (a backing without AppendBacking, or non-ASCII
// bytes under FoldCase, where folding is not byte-local) take the
// string path internally, so the answer bytes are always identical to
// Resolve's.
func (r *Resolver) AppendResolve(dst []byte, dest, user []byte, s *Scratch) ([]byte, bool) {
	if r.ab == nil || (r.opts.FoldCase && !isASCII(dest)) {
		res, err := r.Resolve(string(dest), string(user))
		if err != nil {
			return dst, false
		}
		return append(dst, res.Address()...), true
	}

	// Normalize like normalizeKey: one trailing dot dropped, case
	// folded into the scratch key buffer only when needed.
	key := dest
	if n := len(key); n > 1 && key[n-1] == '.' {
		key = key[:n-1]
	}
	if r.opts.FoldCase {
		s.key = appendFoldASCII(s.key[:0], key)
		key = s.key
	}

	if i, ok := r.ab.LookupExactBytes(key); ok {
		r.nHits.Inc()
		return r.ab.AppendRoute(dst, i, user), true
	}

	// Domain-suffix search over the labels of key (one leading dot
	// ignored for splitting); proper suffixes only, so maxDepth is
	// len(labels)-1. The argument routed to the gateway is
	// key + "!" + user.
	name := key
	if len(name) > 0 && name[0] == '.' {
		name = name[1:]
	}
	s.labels = appendLabels(s.labels[:0], name)
	if len(s.labels) >= 2 {
		if best, _ := r.ab.SuffixBestBytes(s.labels, len(s.labels)-1); best >= 0 {
			r.nSuffixHits.Inc()
			s.arg = append(s.arg[:0], key...)
			s.arg = append(s.arg, '!')
			s.arg = append(s.arg, user...)
			return r.ab.AppendRoute(dst, best, s.arg), true
		}
	}
	r.nMisses.Inc()
	return dst, false
}

// memBacking's byte-keyed operations: the slot probe compares hosts
// against string(key) and the trie indexes its maps with string(label),
// both zero-allocation conversions.

func (m *memBacking) LookupExactBytes(key []byte) (int, bool) {
	return lookupSlots(m, key)
}

func (m *memBacking) SuffixBestBytes(labels [][]byte, maxDepth int) (entry, depth int) {
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

func (m *memBacking) AppendRoute(dst []byte, i int, arg []byte) []byte {
	return AppendRouteString(dst, m.entries[i].Route, arg)
}

// AppendRouteString appends route to dst with arg spliced in place of
// the first %s marker, matching Resolution.Address's
// strings.Replace(route, "%s", arg, 1). Shared by backings whose route
// templates are strings.
func AppendRouteString(dst []byte, route string, arg []byte) []byte {
	j := strings.Index(route, "%s")
	if j < 0 {
		return append(dst, route...)
	}
	dst = append(dst, route[:j]...)
	dst = append(dst, arg...)
	return append(dst, route[j+2:]...)
}
