package resolver

import (
	"cmp"
	"slices"
	"strings"
)

// This file builds the in-memory index in one linear pass over entries
// that are already canonical — which is what every producer in the
// pipeline emits (the engine, the batch printer, and the text file it
// writes are all sorted by name) — and lays the exact-match table out
// exactly as package rdb's hash section, so compiling a built index
// into an image is a copy, not a second build.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// KeyHash is the exact-match table's key function, the one definition
// shared by the in-memory index and package rdb's hash section:
// FNV-1a over 8-byte little-endian chunks of the host name, the tail
// bytes packed with the tail length, and a Murmur-style finalizer
// (plain FNV mixes the last bytes poorly into the low bits, which are
// exactly the ones a power-of-two table uses). Chunking matters:
// open-time validation hashes every host, and byte-serial FNV would be
// its slowest pass.
func KeyHash[K string | []byte](k K) uint64 {
	h := uint64(fnvOffset64)
	for len(k) >= 8 {
		c := uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 | uint64(k[3])<<24 |
			uint64(k[4])<<32 | uint64(k[5])<<40 | uint64(k[6])<<48 | uint64(k[7])<<56
		h = (h ^ c) * fnvPrime64
		k = k[8:]
	}
	var tail uint64
	for i := 0; i < len(k); i++ {
		tail |= uint64(k[i]) << (8 * i)
	}
	h = (h ^ tail ^ uint64(len(k))<<56) * fnvPrime64
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// hashSlots builds the open-addressed exact-match table over canonical
// entries: power-of-two slots (at least 4) at load ≤ 0.5, so probing
// always terminates at an empty slot; linear probing from
// KeyHash(host); filled in entry order; slot value entry index + 1,
// 0 = empty. No entries, no slots.
func hashSlots(es []Entry) []uint32 {
	if len(es) == 0 {
		return nil
	}
	n := 4
	for n < len(es)*2 {
		n <<= 1
	}
	slots := make([]uint32, n)
	mask := uint64(n - 1)
	for i := range es {
		s := KeyHash(es[i].Host) & mask
		for slots[s] != 0 {
			s = (s + 1) & mask
		}
		slots[s] = uint32(i + 1)
	}
	return slots
}

// canonical reports whether es is canonical: every name normalized
// (normalizeKey) and the names strictly ascending. It only reads es.
func canonical(es []Entry, fold bool) bool {
	for i := range es {
		h := es[i].Host
		if normalizeKey(h, fold) != h || i > 0 && es[i-1].Host >= h {
			return false
		}
	}
	return true
}

// canonicalize normalizes entry names in place (see normalizeKey) and
// returns them sorted strictly ascending with duplicates removed,
// keeping the cheapest route per name (ties keep the first seen).
func canonicalize(es []Entry, fold bool) []Entry {
	for i := range es {
		es[i].Host = normalizeKey(es[i].Host, fold)
	}
	slices.SortStableFunc(es, func(a, b Entry) int {
		return cmp.Or(strings.Compare(a.Host, b.Host), cmp.Compare(a.Cost, b.Cost))
	})
	out := es[:0]
	for _, e := range es {
		if len(out) > 0 && out[len(out)-1].Host == e.Host {
			continue
		}
		out = append(out, e)
	}
	return out
}

// newMemBacking indexes canonical entries: the exact-match slot table
// and the reversed-label trie over the leading-dot entries.
func newMemBacking(es []Entry) *memBacking {
	m := &memBacking{entries: es, slots: hashSlots(es), suffix: newTrieNode()}
	for i, e := range es {
		if strings.HasPrefix(e.Host, ".") {
			m.insertSuffix(e.Host, i)
		}
	}
	return m
}

// With returns an index over entries under opts. When r is an
// in-memory index over canonical input, built under the same options,
// and entries carry exactly its names in its order — what a re-map that
// moved routes but no host produces — then entries are canonical too,
// and the new index shares r's slot table and suffix trie: identical
// names give identical slots and trie entry indices, so only one
// read-only comparison pass is paid and an image compiled from either
// index is the same. In every other case, a mapped backing included,
// it is New(entries, opts). Like New, it never writes entries and
// may retain them.
func (r *Resolver) With(entries []Entry, opts Options) *Resolver {
	m, ok := r.b.(*memBacking)
	if !ok || !m.canon || r.opts != opts || !sameHosts(m.entries, entries) {
		return New(entries, opts)
	}
	return NewBacked(&memBacking{entries: entries, slots: m.slots, suffix: m.suffix, canon: true}, opts)
}

// sameHosts reports whether a and b carry the same names in the same
// order.
func sameHosts(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Host != b[i].Host {
			return false
		}
	}
	return true
}
