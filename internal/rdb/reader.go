package rdb

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync/atomic"

	"pathalias/internal/cost"
	"pathalias/internal/mmapio"
	"pathalias/internal/resolver"
)

// Reader serves lookups directly off a compiled route database image —
// typically a read-only memory mapping, so the pages are demand-faulted
// from the page cache and shared across every process reading the same
// file. It implements resolver.Backing; wrap it with
// resolver.NewBacked (or use routedb.OpenBinary) to get the full
// resolution procedure.
//
// A Reader is immutable and safe for any number of concurrent readers.
// Entries returned by EntryAt copy their strings out of the mapping, so
// they stay valid after Close; Close itself must not race in-flight
// lookups (routedb guarantees that by closing only from a GC cleanup
// on the wrapping DB, whose query methods pin it with
// runtime.KeepAlive until they stop touching mapped pages).
type Reader struct {
	data []byte
	src  *mmapio.File // non-nil when Open mapped the file

	opts     resolver.Options
	version  uint32 // format version (1 or 2)
	n        int    // entry count
	slots    uint32 // hash slot count (power of two, or 0)
	strs     []byte // strings section
	ents     []byte // entry records
	hash     []byte // hash table
	trie     []byte // serialized suffix trie
	trieRoot uint32
	crc      uint32 // footer checksum

	// secCRC is each section's CRC-32C in file order, computed during
	// validation (and checked against the stored header values for v2).
	secCRC [numSections]uint32

	closed atomic.Bool
}

// Open maps path (falling back to a plain read where mmap is
// unavailable) and validates it; see OpenBytes for what validation
// guarantees. The returned Reader owns the mapping: Close releases it.
func Open(path string) (*Reader, error) {
	f, err := mmapio.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := OpenBytes(f.Data)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("rdb: %s: %w", path, err)
	}
	r.src = f
	return r, nil
}

// OpenBytes validates a complete rdb image and returns a Reader over
// it; data is aliased, not copied, and must stay valid until Close.
// Validation covers magic, version, the whole-file checksum (and for
// v2 each stored section checksum), the section table, every entry
// record (bounds via the contiguous layout, strict host ordering), the
// hash table's shape (slot ranges, entry uniqueness and presence, an
// empty slot), and a full walk of the suffix trie. After a nil error no
// lookup can read outside data, probe forever, or return a false
// positive; see VerifyReachable for the one deliberately deferred
// proof.
func OpenBytes(data []byte) (*Reader, error) {
	r := &Reader{data: data}
	if err := r.verify(); err != nil {
		return nil, err
	}
	return r, nil
}

// Close releases the mapping, if any. Idempotent. The caller must
// ensure no lookup is in flight; entries already returned stay valid.
func (r *Reader) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	if r.src != nil {
		return r.src.Close()
	}
	return nil
}

// Options returns the options the database was compiled with
// (FoldCase), read from the header flags.
func (r *Reader) Options() resolver.Options { return r.opts }

// Checksum returns the file's CRC-32C integrity checksum from the
// footer — a content fingerprint for change detection.
func (r *Reader) Checksum() uint32 { return r.crc }

// FileChecksum reads just the integrity footer of an rdb file and
// returns its checksum — the cheap "did the file change" probe for
// watchers, no validation of the body.
func FileChecksum(path string) (uint32, error) {
	f, err := mmapio.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	data := f.Data
	if len(data) < headerMin+footerSize || !IsMagic(data) {
		return 0, fmt.Errorf("rdb: %s: not a compiled route database", path)
	}
	foot := data[len(data)-footerSize:]
	if string(foot[8:16]) != string(tailMagic[:]) {
		return 0, fmt.Errorf("rdb: %s: truncated (missing tail magic)", path)
	}
	return le.Uint32(foot[0:]), nil
}

// corrupt builds the uniform validation error.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("rdb: corrupt database: "+format, args...)
}

// verify performs the full structural validation described on
// OpenBytes, populating the Reader's section views as it goes. Every
// offset computation is overflow-checked before it is used to slice,
// so a hostile header can only produce an error, never a panic or an
// out-of-bounds read.
func (r *Reader) verify() error {
	data := r.data
	if len(data) < headerMin+footerSize {
		return corrupt("file too short (%d bytes)", len(data))
	}
	if !IsMagic(data) {
		return fmt.Errorf("rdb: not a compiled route database (bad magic)")
	}
	version := le.Uint32(data[8:])
	if version != version1 && version != version2 {
		return fmt.Errorf("rdb: unsupported format version %d (want %d or %d)", version, version1, version2)
	}
	r.version = version
	hdrSize := uint64(headerSizeOf(version))
	if uint64(len(data)) < hdrSize+footerSize {
		return corrupt("file too short (%d bytes) for a version %d header", len(data), version)
	}
	foot := data[len(data)-footerSize:]
	if string(foot[8:16]) != string(tailMagic[:]) {
		return corrupt("missing tail magic (truncated file)")
	}
	if le.Uint32(foot[4:]) != 0 {
		return corrupt("nonzero footer padding")
	}
	body := data[:len(data)-footerSize]

	flags := le.Uint32(data[12:])
	if flags&^uint32(knownFlags) != 0 {
		return corrupt("unknown flag bits %#x", flags&^uint32(knownFlags))
	}
	r.opts = resolver.Options{FoldCase: flags&flagFoldCase != 0}

	count := le.Uint64(data[16:])
	slots := le.Uint64(data[24:])
	strOff, strLen := le.Uint64(data[32:]), le.Uint64(data[40:])
	entOff, entLen := le.Uint64(data[48:]), le.Uint64(data[56:])
	hashOff, hashLen := le.Uint64(data[64:]), le.Uint64(data[72:])
	trieOff, trieLen := le.Uint64(data[80:]), le.Uint64(data[88:])
	trieRoot := le.Uint64(data[96:])
	bodyEnd := uint64(len(body))

	if count > bodyEnd/entrySize {
		return corrupt("entry count %d exceeds file size", count)
	}
	if entLen != count*entrySize {
		return corrupt("entries section length %d, want %d", entLen, count*entrySize)
	}
	if slots > 1<<31 {
		return corrupt("hash slot count %d too large", slots)
	}
	if hashLen != slots*4 {
		return corrupt("hash section length %d, want %d", hashLen, slots*4)
	}
	if count == 0 {
		if slots != 0 {
			return corrupt("hash slots without entries")
		}
	} else if slots&(slots-1) != 0 || count >= slots {
		return corrupt("bad hash table shape: %d entries in %d slots", count, slots)
	}

	// Canonical layout: the four sections in fixed order, 8-aligned, no
	// gaps beyond alignment padding, ending exactly at the footer. The
	// cursor arithmetic cannot overflow: each section's length is
	// checked against the remaining body first.
	cur := hdrSize
	section := func(off, length uint64, name string) error {
		if off != cur {
			return corrupt("%s section at %d, want %d", name, off, cur)
		}
		if length > bodyEnd-off {
			return corrupt("%s section overruns the file", name)
		}
		cur = align8(off + length)
		return nil
	}
	for _, s := range []struct {
		off, len uint64
		name     string
	}{
		{strOff, strLen, "strings"},
		{entOff, entLen, "entries"},
		{hashOff, hashLen, "hash"},
		{trieOff, trieLen, "trie"},
	} {
		if err := section(s.off, s.len, s.name); err != nil {
			return err
		}
	}
	if cur != bodyEnd {
		return corrupt("%d trailing bytes after sections", bodyEnd-cur)
	}

	if trieLen == 0 {
		if trieRoot != 0 {
			return corrupt("trie root %d in empty trie", trieRoot)
		}
	} else if trieRoot >= trieLen || trieRoot%4 != 0 || trieLen%4 != 0 {
		return corrupt("trie root %d out of bounds", trieRoot)
	}

	r.n = int(count)
	r.slots = uint32(slots)
	r.strs = data[strOff : strOff+strLen]
	r.ents = data[entOff : entOff+entLen]
	r.hash = data[hashOff : hashOff+hashLen]
	r.trie = data[trieOff : trieOff+trieLen]
	r.trieRoot = uint32(trieRoot)
	r.crc = le.Uint32(foot[0:])

	// Alignment padding and the reserved header tail must be zero: no
	// bytes outside the sections carry information. (In v2 the section
	// checksums occupy 104–120; the reserved tail starts after them.)
	reserved := uint64(secCRCOff)
	if version >= version2 {
		reserved = secCRCOff + 4*numSections
	}
	for _, gap := range [][2]uint64{
		{reserved, hdrSize},
		{strOff + strLen, entOff},
		{entOff + entLen, hashOff},
		{hashOff + hashLen, trieOff},
		{trieOff + trieLen, bodyEnd},
	} {
		for i := gap[0]; i < gap[1]; i++ {
			if data[i] != 0 {
				return corrupt("nonzero padding at byte %d", i)
			}
		}
	}

	// Checksum phase: each section's CRC is computed once — the strings
	// and entries inside verifyEntries' validation sweep — and the
	// footer's whole-body CRC is derived from them, so no byte of the
	// body is hashed twice. A structural error from verifyEntries is
	// reported only after the checksums, so corruption reads as such.
	var entErr error
	r.secCRC[0], r.secCRC[1], entErr = r.verifyEntries()
	r.secCRC[2] = crc32.Checksum(r.hash, crcTable)
	r.secCRC[3] = crc32.Checksum(r.trie, crcTable)
	spans := [numSections]span{{strOff, strLen}, {entOff, entLen}, {hashOff, hashLen}, {trieOff, trieLen}}
	if want, got := le.Uint32(foot[0:]), bodyChecksum(body, spans, r.secCRC); got != want {
		return corrupt("checksum mismatch (file %08x, computed %08x)", want, got)
	}
	if version >= version2 {
		for i, got := range r.secCRC {
			if stored := le.Uint32(data[secCRCOff+4*i:]); got != stored {
				return corrupt("%s section checksum mismatch (header %08x, computed %08x)",
					sectionNames[i], stored, got)
			}
		}
	}
	if entErr != nil {
		return entErr
	}
	if err := r.verifyHash(); err != nil {
		return err
	}
	return r.verifyTrie()
}

// verifyEntries checks the entry records against the strings section.
// Bounds come almost for free from the contiguous layout: offsets must
// be strictly interleaved (host start < route start, route start ≤
// next host start) starting at 0 and ending inside the section — one
// monotonicity pass, no per-entry slicing of string data. Hosts must
// additionally be strictly ascending (so the file is deduplicated and
// every name distinct, which the hash validation relies on).
//
// The same sweep computes the CRC-32C of both sections it reads: each
// block of entry records, and the strings up to the block's last host,
// is hashed just before the block is validated, so the host names are
// compared while the checksum pass has them in cache. On a cold open
// that saves a second trip to memory for most of the image. A
// structural error stops validation but not hashing, so the caller can
// still report a checksum mismatch first.
func (r *Reader) verifyEntries() (strCRC, entCRC uint32, err error) {
	end := uint32(len(r.strs))
	if r.n == 0 && end != 0 {
		err = corrupt("string data without entries")
	}
	// Interleaved monotonicity: host(i) is [hOff, rOff), route(i) is
	// [rOff, next hOff) — so hOff(0) = 0, hOff < rOff (hosts are never
	// empty), and each hOff is at or after the previous rOff. Coverage
	// of the section is exact by construction; no byte escapes
	// validation.
	hashed := uint32(0) // strings bytes hashed so far
	prevRouteOff := uint32(0)
	var prevHost []byte
	for i := 0; i < r.n; i += entriesPerBlock {
		blk := r.ents[i*entrySize : min(i+entriesPerBlock, r.n)*entrySize]
		entCRC = crc32.Update(entCRC, crcTable, blk)
		if err != nil {
			continue
		}
		// The block's last route offset — clamped, since it is not
		// validated yet — bounds how far ahead the strings are hashed.
		if upto := min(le.Uint32(blk[len(blk)-entrySize+4:]), end); upto > hashed {
			strCRC = crc32.Update(strCRC, crcTable, r.strs[hashed:upto])
			hashed = upto
		}
		for k := i; len(blk) >= entrySize; k++ {
			hOff, rOff := le.Uint32(blk[0:]), le.Uint32(blk[4:])
			blk = blk[entrySize:]
			if k == 0 && hOff != 0 {
				err = corrupt("string data does not start at the first host")
				break
			}
			if hOff < prevRouteOff || rOff <= hOff || rOff > end {
				err = corrupt("entry %d: string data not contiguous", k)
				break
			}
			host := r.strs[hOff:rOff]
			if k > 0 && bytes.Compare(prevHost, host) >= 0 {
				err = corrupt("entry %d: hosts not strictly sorted", k)
				break
			}
			prevHost, prevRouteOff = host, rOff
		}
	}
	strCRC = crc32.Update(strCRC, crcTable, r.strs[hashed:])
	return strCRC, entCRC, err
}

// entriesPerBlock is verifyEntries' hashing granularity: 32 KiB of
// entry records and the strings they point into (about 150 KiB for
// typical routes) stay cache-resident between the checksum and the
// comparisons.
const entriesPerBlock = 2048

// verifyHash checks that every slot points at a real entry, that every
// entry sits in exactly one slot, and that every entry is reachable by
// its own linear-probe sequence — after this, LookupExact can trust
// the table completely.
//
// Reachability is checked without probing: entry i at slot s with home
// slot h = fnv(host) & mask is found by a lookup iff no slot in the
// circular interval [h, s] is empty (probing stops at the first empty
// slot; hosts are strictly sorted, hence distinct, so no earlier slot
// can match first). That holds iff the run of consecutive nonzero
// slots ending at s is longer than the probe distance (s-h) & mask.
// Everything is computed in sequential passes — on a cold 200k-entry
// mapping this is several times faster than per-entry probing, which
// is exactly the cold-start cost the format exists to avoid.
func (r *Reader) verifyHash() error {
	if r.slots == 0 {
		return nil
	}
	// One sequential scan: every slot value in range, every entry index
	// at most once, exactly n entries present, and at least one empty
	// slot so probe loops terminate. With the strict host ordering from
	// verifyEntries (all names distinct) this makes every lookup
	// outcome safe and honest: no out-of-bounds access, no unterminated
	// probe, and no false positive, since a hit requires a
	// byte-identical host.
	//
	// The scan only stores: marks[v] = 1 for each slot value v (the
	// empty slots all land on marks[0]), with no read-modify-write of a
	// bitmap. Uniqueness then follows by pigeonhole: n non-empty slots
	// whose values mark n distinct entries hold each entry exactly
	// once. An empty slot exists because the header check guarantees
	// n < slots. Any failure re-runs the precise scan, so the error
	// names the first bad slot.
	//
	// What this pass deliberately does NOT prove is probe
	// *reachability* — that no entry hides behind an empty slot its
	// own probe sequence would stop at. That proof needs each entry's
	// home slot, and computing 200k scattered home-vs-slot joins is
	// random-access work that would dominate the instant-start open
	// this format exists for. It also adds no adversarial protection:
	// an attacker able to craft an unreachable-but-valid table could
	// just as well omit the entry from a smaller, fully valid file.
	// Against accidental corruption the footer CRC already vouches for
	// every byte. Callers that want the full proof anyway — mkdb when
	// converting a database, the fuzz harness — run VerifyReachable.
	n := uint32(r.n)
	marks := make([]byte, n+1)
	used := uint32(0)
	for h := r.hash; len(h) >= 8; h = h[8:] { // slots come in pairs: at least 4, a power of two
		w := le.Uint64(h)
		lo, hi := uint32(w), uint32(w>>32)
		if max(lo, hi) > n {
			return r.verifyHashPrecise()
		}
		marks[lo], marks[hi] = 1, 1
		used += (lo|-lo)>>31 + (hi|-hi)>>31 // one per non-empty slot
	}
	if used != n || countOnes(marks[1:]) != r.n {
		return r.verifyHashPrecise()
	}
	return nil
}

// countOnes counts the bytes of b that are 1, given every byte is 0 or
// 1: eight bytes per step, as set bits of a word.
func countOnes(b []byte) int {
	c := 0
	for ; len(b) >= 8; b = b[8:] {
		c += bits.OnesCount64(le.Uint64(b))
	}
	for _, x := range b {
		c += int(x)
	}
	return c
}

// verifyHashPrecise is verifyHash's slot-by-slot check, which names
// the first slot at fault; verifyHash runs it only once its pigeonhole
// counts have found one.
func (r *Reader) verifyHashPrecise() error {
	seen := make([]uint64, (r.n+63)/64)
	found := 0
	hasEmpty := false
	for s := uint32(0); s < r.slots; s++ {
		v := le.Uint32(r.hash[s*4:])
		if v == 0 {
			hasEmpty = true
			continue
		}
		if v > uint32(r.n) {
			return corrupt("hash slot %d: entry %d out of range", s, v-1)
		}
		i := v - 1
		if seen[i/64]&(1<<(i%64)) != 0 {
			return corrupt("entry %d in two hash slots", i)
		}
		seen[i/64] |= 1 << (i % 64)
		found++
	}
	if !hasEmpty {
		return corrupt("hash table has no empty slot")
	}
	if found != r.n {
		return corrupt("%d of %d entries missing from hash table", r.n-found, r.n)
	}
	return nil
}

// VerifyReachable proves what open-time validation defers (see
// verifyHash): that every entry is found by its own probe sequence,
// i.e. no slot in the circular interval from the entry's home slot to
// its actual slot is empty. Costs a hash of every host plus
// random-access joins — run it when converting or auditing a database,
// not on the serving cold path.
func (r *Reader) VerifyReachable() error {
	if r.slots == 0 {
		return nil
	}
	mask := r.slots - 1
	// Home slots in entry order: hosts sit consecutively in the
	// strings section, so this pass reads sequentially.
	homes := make([]uint32, r.n)
	for i := 0; i < r.n; i++ {
		homes[i] = uint32(resolver.KeyHash(r.hostBytes(i))) & mask
	}
	// Walk the table circularly from an empty anchor. `run` counts the
	// consecutive nonzero slots ending at s; the probe distance from an
	// entry's home to its slot must fit inside that run — anything
	// longer would cross an empty slot and the probe would have
	// stopped short.
	empty := uint32(0xFFFFFFFF)
	for s := uint32(0); s < r.slots; s++ {
		if le.Uint32(r.hash[s*4:]) == 0 {
			empty = s
			break
		}
	}
	if empty == 0xFFFFFFFF {
		return corrupt("hash table has no empty slot")
	}
	run := uint32(0)
	for k := uint32(1); k <= r.slots; k++ {
		s := (empty + k) & mask
		v := le.Uint32(r.hash[s*4:])
		if v == 0 {
			run = 0
			continue
		}
		run++
		i := v - 1
		if i >= uint32(r.n) {
			return corrupt("hash slot %d: entry %d out of range", s, i)
		}
		if d := (s - homes[i]) & mask; d >= run {
			return corrupt("entry %d (%q) not reachable through hash table", i, r.hostBytes(int(i)))
		}
	}
	return nil
}

// verifyTrie walks the whole suffix trie once. Each node must be
// in-bounds and 4-aligned, children strictly sorted by label with
// labels inside the strings section, entry indices valid, and every
// child offset strictly smaller than its parent's — which rules out
// cycles, so the walk (deduplicated by a visited bitmap, since
// subtrees may be shared in a hostile file) terminates in one pass.
func (r *Reader) verifyTrie() error {
	if len(r.trie) == 0 {
		return nil
	}
	visited := make([]bool, len(r.trie)/4)
	stack := []uint32{r.trieRoot}
	for len(stack) > 0 {
		off := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[off/4] {
			continue
		}
		visited[off/4] = true
		if uint64(off)+trieNodeFixed > uint64(len(r.trie)) {
			return corrupt("trie node %d: header out of bounds", off)
		}
		entry := le.Uint32(r.trie[off:])
		nchild := le.Uint32(r.trie[off+4:])
		if entry != noEntry && entry >= uint32(r.n) {
			return corrupt("trie node %d: entry %d out of range", off, entry)
		}
		if uint64(off)+trieNodeFixed+uint64(nchild)*trieChildSize > uint64(len(r.trie)) {
			return corrupt("trie node %d: %d children out of bounds", off, nchild)
		}
		var prev []byte
		for c := uint32(0); c < nchild; c++ {
			p := r.trie[uint64(off)+trieNodeFixed+uint64(c)*trieChildSize:]
			lOff, lLen := le.Uint32(p[0:]), le.Uint32(p[4:])
			child := le.Uint32(p[8:])
			if uint64(lOff)+uint64(lLen) > uint64(len(r.strs)) {
				return corrupt("trie node %d: label out of bounds", off)
			}
			label := r.strs[uint64(lOff) : uint64(lOff)+uint64(lLen)]
			if c > 0 && bytes.Compare(prev, label) >= 0 {
				return corrupt("trie node %d: children not sorted", off)
			}
			prev = label
			if child >= off || child%4 != 0 {
				return corrupt("trie node %d: child offset %d not below parent", off, child)
			}
			stack = append(stack, child)
		}
	}
	return nil
}

// hostBytes returns entry i's host name bytes in place (no copy): the
// contiguous layout puts the host between its own two offsets.
func (r *Reader) hostBytes(i int) []byte {
	p := r.ents[i*entrySize:]
	return r.strs[le.Uint32(p[0:]):le.Uint32(p[4:])]
}

// routeBytes returns entry i's route bytes in place (no copy): from
// its route offset to the next entry's host offset (or the section
// end for the last entry).
func (r *Reader) routeBytes(i int) []byte {
	p := r.ents[i*entrySize:]
	end := uint32(len(r.strs))
	if i+1 < r.n {
		end = le.Uint32(r.ents[(i+1)*entrySize:])
	}
	return r.strs[le.Uint32(p[4:]):end]
}

// Len returns the number of entries (resolver.Backing).
func (r *Reader) Len() int { return r.n }

// EntryAt returns entry i (resolver.Backing). The strings are copied
// out of the image, so the entry outlives the mapping.
func (r *Reader) EntryAt(i int) resolver.Entry {
	p := r.ents[i*entrySize:]
	return resolver.Entry{
		Host:  string(r.hostBytes(i)),
		Route: string(r.routeBytes(i)),
		Cost:  cost.Cost(int64(le.Uint64(p[8:]))),
	}
}

// LookupExact probes the open-addressed table for key
// (resolver.Backing). Comparisons run against the mapped bytes; no
// allocation on hit or miss.
func (r *Reader) LookupExact(key []byte) (int, bool) {
	if r.slots == 0 {
		return 0, false
	}
	mask := r.slots - 1
	for s := uint32(resolver.KeyHash(key)) & mask; ; s = (s + 1) & mask {
		v := le.Uint32(r.hash[s*4:])
		if v == 0 {
			return 0, false
		}
		i := int(v - 1)
		if bytes.Equal(r.hostBytes(i), key) {
			return i, true
		}
	}
}

// SuffixBest descends the serialized trie by labels from the right
// (resolver.Backing): binary search among each node's children, the
// deepest node with an entry wins.
func (r *Reader) SuffixBest(labels [][]byte, maxDepth int) (entry, depth int) {
	if len(r.trie) == 0 {
		return -1, 0
	}
	best, bestDepth := -1, 0
	off := r.trieRoot
	for d := 1; d <= maxDepth; d++ {
		child, ok := r.childOf(off, labels[len(labels)-d])
		if !ok {
			break
		}
		off = child
		if e := le.Uint32(r.trie[off:]); e != noEntry {
			best, bestDepth = int(e), d
		}
	}
	return best, bestDepth
}

// AppendRoute appends entry i's route to dst with arg spliced in place
// of the first %s marker (resolver.Backing). The route bytes are
// copied straight off the mapped pages into dst — the zero-copy answer
// path; callers wrapping a mapped Reader must keep the mapping alive
// until this returns (routedb does, via its KeepAlive discipline).
func (r *Reader) AppendRoute(dst []byte, i int, arg []byte) []byte {
	route := r.routeBytes(i)
	j := bytes.Index(route, routeMarker)
	if j < 0 {
		return append(dst, route...)
	}
	dst = append(dst, route[:j]...)
	dst = append(dst, arg...)
	return append(dst, route[j+2:]...)
}

// routeMarker is the %s splice point in a route template.
var routeMarker = []byte("%s")

// childOf binary-searches the node at off for the child whose label is
// label. Label bytes are compared in place; no allocation.
func (r *Reader) childOf(off uint32, label []byte) (uint32, bool) {
	nchild := le.Uint32(r.trie[off+4:])
	lo, hi := uint32(0), nchild
	for lo < hi {
		mid := (lo + hi) / 2
		p := r.trie[uint64(off)+trieNodeFixed+uint64(mid)*trieChildSize:]
		lOff, lLen := le.Uint32(p[0:]), le.Uint32(p[4:])
		cand := r.strs[uint64(lOff) : uint64(lOff)+uint64(lLen)]
		switch c := bytes.Compare(cand, label); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return le.Uint32(p[8:]), true
		}
	}
	return 0, false
}
