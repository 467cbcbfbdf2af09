package rdb

import (
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"strings"

	"pathalias/internal/resolver"
)

// Compile serializes routes into a version-2 rdb file image (the
// current format; readers back to version 1 cannot open it, but this
// reader opens both). The entries are indexed by resolver.New and the
// image is laid out from that index (see CompileResolver), so the
// compiled file indexes exactly what an in-memory resolver built from
// the same entries and options would; the output is deterministic:
// same entries, same options, same bytes.
func Compile(entries []resolver.Entry, opts resolver.Options) ([]byte, error) {
	return CompileResolver(resolver.New(entries, opts))
}

// CompileResolver serializes an already built index into a version-2
// rdb file image: the resolver's canonical entries and its exact-match
// slot table (resolver.Index, which has the hash section's layout) are
// written as they are, with no second indexing pass. The bytes equal
// Compile's over the same entries and options.
func CompileResolver(r *resolver.Resolver) ([]byte, error) {
	es, slots := r.Index()
	return marshal(es, slots, r.Options(), version2)
}

// marshal lays out canonical (normalized, strictly sorted, deduplicated)
// entries and their exact-match slot table as a complete file image,
// in one buffer allocated at its final size. version selects the header
// layout (Compile always writes version2; tests exercise the version1
// compatibility path).
func marshal(es []resolver.Entry, slots []uint32, opts resolver.Options, version uint32) ([]byte, error) {
	// Sizing pass: the strings section holds hosts and routes,
	// concatenated in entry order. Suffix-trie labels are substrings of
	// their entry's host, so they get offsets into the same section for
	// free, and the trie is built here, where host offsets are known.
	var strLen uint64
	var tb trieBuilder
	for i, e := range es {
		if e.Host == "" {
			return nil, fmt.Errorf("rdb: entry %d: empty host", i)
		}
		// Routes almost always end in the marker; the suffix test
		// spares the scan.
		if !strings.HasSuffix(e.Route, "%s") && !strings.Contains(e.Route, "%s") {
			return nil, fmt.Errorf("rdb: entry %q: route %q has no %%s marker", e.Host, e.Route)
		}
		if strings.HasPrefix(e.Host, ".") {
			if err := tb.insert(e.Host, uint32(i), uint32(strLen)); err != nil {
				return nil, err
			}
		}
		strLen += uint64(len(e.Host) + len(e.Route))
		if strLen > math.MaxUint32 {
			return nil, fmt.Errorf("rdb: string data exceeds 4 GiB")
		}
	}
	trie, trieRoot, err := tb.serialize()
	if err != nil {
		return nil, err
	}

	// Section layout: fixed order, 8-byte aligned, nothing in between.
	n := uint64(len(es))
	nslots := uint64(len(slots))
	strOff := uint64(headerSizeOf(version))
	entOff := align8(strOff + strLen)
	hashOff := align8(entOff + n*entrySize)
	trieOff := align8(hashOff + nslots*4)
	bodyEnd := align8(trieOff + uint64(len(trie)))
	spans := [numSections]span{
		{strOff, strLen}, {entOff, n * entrySize}, {hashOff, nslots * 4}, {trieOff, uint64(len(trie))},
	}

	img := make([]byte, bodyEnd+footerSize)
	copy(img[0:], magic[:])
	le.PutUint32(img[8:], version)
	flags := uint32(0)
	if opts.FoldCase {
		flags |= flagFoldCase
	}
	le.PutUint32(img[12:], flags)
	le.PutUint64(img[16:], n)
	le.PutUint64(img[24:], nslots)
	for i, sp := range spans {
		le.PutUint64(img[32+16*i:], sp.off)
		le.PutUint64(img[40+16*i:], sp.len)
	}
	le.PutUint64(img[96:], uint64(trieRoot))
	// v1: img[104:112] reserved, zero.
	// v2: img[104:120] per-section CRCs (filled below), img[120:128]
	// reserved, zero.

	strs := img[strOff : strOff+strLen]
	ents := img[entOff : entOff+n*entrySize]
	p := 0
	for i, e := range es {
		rec := ents[i*entrySize : (i+1)*entrySize]
		le.PutUint32(rec[0:], uint32(p))
		p += copy(strs[p:], e.Host)
		le.PutUint32(rec[4:], uint32(p))
		p += copy(strs[p:], e.Route)
		le.PutUint64(rec[8:], uint64(int64(e.Cost)))
	}
	hash := img[hashOff : hashOff+nslots*4]
	for i, v := range slots {
		le.PutUint32(hash[4*i:], v)
	}
	copy(img[trieOff:], trie)

	var secCRC [numSections]uint32
	for i, sp := range spans {
		secCRC[i] = crc32.Checksum(img[sp.off:sp.off+sp.len], crcTable)
		if version >= version2 {
			le.PutUint32(img[secCRCOff+4*i:], secCRC[i])
		}
	}
	foot := img[bodyEnd:]
	le.PutUint32(foot[0:], bodyChecksum(img[:bodyEnd], spans, secCRC))
	copy(foot[8:], tailMagic[:])
	return img, nil
}

// wnode is a suffix-trie node under construction. children maps each
// label to the child and the label's resting place in the strings
// section (a substring of whichever entry's host first used it).
type wnode struct {
	entry    uint32 // entry index, noEntry if none
	children map[string]*wchild
}

type wchild struct {
	node               *wnode
	labelOff, labelLen uint32
}

// trieBuilder collects the reversed-label suffix trie over the
// leading-dot entries, in entry order.
type trieBuilder struct {
	root *wnode
}

// insert threads the leading-dot entry idx, whose host starts at byte
// hostOff of the strings section, into the trie by its labels, last
// label first.
func (tb *trieBuilder) insert(host string, idx, hostOff uint32) error {
	if tb.root == nil {
		tb.root = &wnode{entry: noEntry}
	}
	labels := strings.Split(host[1:], ".")
	// Byte position of each label within the host string: host is
	// "." + join(labels, ".").
	pos := make([]uint32, len(labels))
	p := uint32(1)
	for j, l := range labels {
		pos[j] = p
		p += uint32(len(l)) + 1
	}
	n := tb.root
	for j := len(labels) - 1; j >= 0; j-- {
		if n.children == nil {
			n.children = make(map[string]*wchild)
		}
		c := n.children[labels[j]]
		if c == nil {
			c = &wchild{
				node:     &wnode{entry: noEntry},
				labelOff: hostOff + pos[j],
				labelLen: uint32(len(labels[j])),
			}
			n.children[labels[j]] = c
		}
		n = c.node
	}
	if n.entry != noEntry {
		return fmt.Errorf("rdb: duplicate suffix entry %q", host)
	}
	n.entry = idx
	return nil
}

// serialize emits the trie post-order with children sorted by label,
// so every child offset is strictly smaller than its parent's and the
// serialized form is acyclic by construction; the returned root offset
// is the last node written. An empty trie serializes to zero bytes.
func (tb *trieBuilder) serialize() (trie []byte, root uint32, err error) {
	if tb.root == nil {
		return nil, 0, nil
	}
	var emit func(n *wnode) (uint32, error)
	emit = func(n *wnode) (uint32, error) {
		labels := make([]string, 0, len(n.children))
		for l := range n.children {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		offs := make([]uint32, len(labels))
		for i, l := range labels {
			off, err := emit(n.children[l].node)
			if err != nil {
				return 0, err
			}
			offs[i] = off
		}
		off := uint64(len(trie))
		if off+trieNodeFixed+uint64(len(labels))*trieChildSize > math.MaxUint32 {
			return 0, fmt.Errorf("rdb: suffix trie exceeds 4 GiB")
		}
		var hdr [trieNodeFixed]byte
		le.PutUint32(hdr[0:], n.entry)
		le.PutUint32(hdr[4:], uint32(len(labels)))
		trie = append(trie, hdr[:]...)
		for i, l := range labels {
			c := n.children[l]
			var enc [trieChildSize]byte
			le.PutUint32(enc[0:], c.labelOff)
			le.PutUint32(enc[4:], c.labelLen)
			le.PutUint32(enc[8:], offs[i])
			trie = append(trie, enc[:]...)
		}
		return uint32(off), nil
	}
	root, err = emit(tb.root)
	if err != nil {
		return nil, 0, err
	}
	return trie, root, nil
}
