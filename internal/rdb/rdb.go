// Package rdb is the compiled route store: a versioned, checksummed,
// mmap-able on-disk route database that a resolver serves directly off
// the mapped pages — no parsing, no per-entry allocation at open, and a
// page cache shared across every process mapping the same file.
//
// The paper's OUTPUT section: "a separate program may be used to
// convert this file into a format appropriate for rapid database
// retrieval" — historically `pathalias | makedb` fed a dbm file the
// mailer consumed. This package is that format, designed for the
// serving layer's cold path: where loading the linear text file costs a
// full parse plus index build before the first lookup (seconds at
// modern scale), opening an rdb file costs a checksum pass and a
// structural validation walk over already-laid-out sections.
//
// # File format (versions 1 and 2)
//
// A single flat file, all integers little-endian, sections 8-byte
// aligned, in fixed order:
//
//	header   112 bytes (v1) / 128 bytes (v2): magic "\x89RDB\r\n\x1a\n",
//	         version, flags, entry count, hash slot count, and the
//	         section table (offset+length for strings, entries, hash,
//	         trie, plus the trie root offset). Version 2 appends four
//	         u32 per-section CRC-32C checksums (strings, entries, hash,
//	         trie) at bytes 104–120 — everything through byte 104 is
//	         laid out exactly as in v1
//	strings  host names and route format strings: entry 0's host, then
//	         its route, then entry 1's host, ... — contiguous in entry
//	         order, covering the section exactly
//	entries  one 16-byte record per route, sorted strictly ascending by
//	         host name: host offset and route offset (u32, into
//	         strings) and the cost as an int64. Lengths are implicit in
//	         the contiguous layout: the host ends where the route
//	         starts, the route where the next entry's host starts (or
//	         the section ends) — which is also what makes bounds
//	         validation a single monotonicity pass
//	hash     open-addressed exact-match table: power-of-two u32 slots
//	         (at least 4, load ≤ 0.5), keyed on the host bytes by
//	         resolver.KeyHash (chunked FNV-1a: 8-byte little-endian
//	         chunks, a length-tagged tail, and a Murmur-style finalizer
//	         for low-bit avalanche), linear probing, filled in entry
//	         order, slot value entry index + 1 (0 = empty)
//	trie     the reversed-label domain-suffix trie, serialized
//	         post-order: each node is entry index (u32, ~0 = none),
//	         child count, then children {label off/len, node offset}
//	         sorted by label bytes; child node offsets are strictly
//	         smaller than their parent's, so the structure is acyclic
//	         by construction
//	footer   16 bytes: CRC-32C over everything before the footer, then
//	         the tail magic "RDBend\r\n"
//
// Entry names are stored normalized exactly as package resolver
// normalizes them (one trailing dot dropped, case folded when the
// fold-case flag is set), sorted and deduplicated keeping the cheapest
// route. The writer lays out a resolver's own built index — its
// canonical entries and its exact-match slot table, which has the hash
// section's layout and the same key function (resolver.KeyHash) — so a
// compiled file and the in-memory index answer every query identically,
// and compiling a store that is already indexed indexes nothing again.
//
// The Writer is deterministic: the same entries and options produce the
// same bytes, so compiled databases can be compared, cached, and
// shipped by content hash.
//
// The Reader distrusts its input. Open verifies the checksums and then
// structurally validates every section — bounds, sortedness, hash
// table shape, and a full trie walk — before any lookup is served, so
// a truncated, bit-flipped, or hostile file yields an error, never a
// panic or an out-of-bounds read. Each byte is checksummed once: every
// section's CRC is computed in one pass, and the footer's whole-body
// CRC is derived from them by CRC-32C combination. The validation
// passes are designed to read sequentially; the one check that
// inherently needs scattered joins (probe reachability, see
// Reader.VerifyReachable) is deferred off the cold path, where it buys
// no adversarial protection anyway.
//
// The writer emits version 2; the reader accepts both versions. The
// per-section checksums exist for the continuous-publish pipeline: a
// watcher replacing its mapping with the next published image of the
// same map uses OpenReusing to skip re-validating sections that are
// byte-identical to the already-validated previous image. The stored
// CRCs are a change *pre-filter*, not the proof — CRC-32C is trivially
// forgeable, so equality of the actual bytes against the validated
// image (bytes.Equal) is what licenses the skip; see OpenBytesReusing.
// Like the footer checksum, section CRCs are integrity against
// accidental corruption, not authentication: an attacker who can write
// the file can write matching checksums. Authenticating images is the
// transport's job.
package rdb

import (
	"encoding/binary"
	"hash/crc32"
)

// Format constants; see the package comment for the layout.
const (
	headerSizeV1 = 112
	headerSizeV2 = 128
	headerMin    = headerSizeV1 // smallest header any version can carry
	footerSize   = 16
	version1     = 1
	version2     = 2

	// numSections and secCRCOff describe the v2 per-section checksum
	// block: four u32 CRC-32C values (strings, entries, hash, trie) at
	// bytes 104–120 of the header.
	numSections = 4
	secCRCOff   = 104

	entrySize = 16 // one entry record

	flagFoldCase  = 1 << 0
	knownFlags    = flagFoldCase
	noEntry       = ^uint32(0) // trie node with no entry
	trieNodeFixed = 8          // entry + child count
	trieChildSize = 12         // label off/len + node offset
)

// magic opens every rdb file. PNG-style: a high bit to catch 7-bit
// strippers, CRLF and LF to catch line-ending translation, ^Z to stop
// accidental terminal cats. No pathalias text route file can share a
// prefix with it.
var magic = [8]byte{0x89, 'R', 'D', 'B', '\r', '\n', 0x1a, '\n'}

// tailMagic closes the footer; a missing tail is the fast truncation
// signal.
var tailMagic = [8]byte{'R', 'D', 'B', 'e', 'n', 'd', '\r', '\n'}

// le is the file's byte order.
var le = binary.LittleEndian

// crcTable is CRC-32C (Castagnoli), hardware-accelerated on current
// CPUs, used for the integrity footer.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// IsMagic reports whether data begins with the rdb file magic. Eight
// bytes suffice; shorter prefixes report false. This is how uupath and
// friends auto-detect a compiled database versus a linear text file.
func IsMagic(data []byte) bool {
	return len(data) >= len(magic) && string(data[:len(magic)]) == string(magic[:])
}

// span is one section's (offset, length) within the file.
type span struct{ off, len uint64 }

// bodyChecksum derives the footer checksum — CRC-32C over the whole
// body — from the four section CRCs, hashing only the bytes outside the
// sections (the header and alignment padding, a few hundred bytes), so
// no section byte is hashed twice. spans must be layout-valid:
// ascending and inside body.
func bodyChecksum(body []byte, spans [numSections]span, secCRC [numSections]uint32) uint32 {
	crc, cur := uint32(0), uint64(0)
	for i, sp := range spans {
		crc = crc32.Update(crc, crcTable, body[cur:sp.off])
		crc = crcCombine(crc, secCRC[i], sp.len)
		cur = sp.off + sp.len
	}
	return crc32.Update(crc, crcTable, body[cur:])
}

// crcCombine returns the CRC-32C of a‖b from crcA = CRC(a), crcB =
// CRC(b) and lenB = len(b): crcA carried over lenB more bytes — a
// multiplication by x^(8·lenB) modulo the Castagnoli polynomial — xor
// crcB, as zlib's crc32_combine does for its polynomial. Costs
// O(log lenB) polynomial products, independent of the data.
func crcCombine(crcA, crcB uint32, lenB uint64) uint32 {
	return gfMul(xPow8n(lenB), crcA) ^ crcB
}

// gfMul multiplies two polynomials modulo the Castagnoli polynomial,
// in CRC-32C's reflected bit order (bit 31 is x^0).
func gfMul(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				break
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.Castagnoli
		} else {
			b >>= 1
		}
	}
	return p
}

// x2n[k] is x^(2^k) modulo the Castagnoli polynomial.
var x2n = func() (t [64]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = gfMul(p, p)
	}
	return t
}()

// xPow8n returns x^(8n) modulo the Castagnoli polynomial.
func xPow8n(n uint64) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = gfMul(x2n[k], p)
		}
	}
	return p
}

// align8 rounds n up to the next multiple of 8.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// sectionNames label the four sections in file order, for diagnostics
// and reuse logging.
var sectionNames = [numSections]string{"strings", "entries", "hash", "trie"}

// headerSizeOf returns the header size of a supported format version.
func headerSizeOf(version uint32) int {
	if version >= version2 {
		return headerSizeV2
	}
	return headerSizeV1
}
