package resolver

import "bytes"

// This file is the serving hot path's allocation-free face of the
// resolution procedure (find): the daemon answers millions of
// line-protocol requests, and building a Resolution (three strings plus
// the final strings.Replace) costs several allocations per request.
// AppendResolve instead splices the route template around the user
// bytes straight into a caller-supplied buffer — for a mapped backing,
// copied directly off the database file's pages — so a steady-state
// request allocates nothing.

// Scratch holds the reusable buffers one resolution needs (key
// normalization, label splitting, the suffix argument). A Scratch is
// not safe for concurrent use; keep one per connection or goroutine
// (they pool well) and reuse it across calls.
type Scratch struct {
	key    []byte   // case-folded destination key
	labels [][]byte // destination label split
	arg    []byte   // suffix argument: key + "!" + user
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
// miss dst is returned unchanged. The answer bytes are always
// identical to Resolve's.
func (r *Resolver) AppendResolve(dst []byte, dest, user []byte, s *Scratch) ([]byte, bool) {
	key, i, depth := r.find(dest, s, true)
	if i < 0 {
		return dst, false
	}
	if depth == 0 {
		return r.b.AppendRoute(dst, i, user), true
	}
	// A suffix match routes key + "!" + user to the domain gateway.
	s.arg = append(s.arg[:0], key...)
	s.arg = append(s.arg, '!')
	s.arg = append(s.arg, user...)
	return r.b.AppendRoute(dst, i, s.arg), true
}
