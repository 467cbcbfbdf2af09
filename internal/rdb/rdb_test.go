package rdb

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"pathalias/internal/cost"
	"pathalias/internal/resolver"
)

// testEntries is a small route set exercising every structural feature:
// exact hosts, multi-level domain-suffix entries sharing labels, costs,
// and names needing normalization (trailing dot, duplicates).
func testEntries() []resolver.Entry {
	return []resolver.Entry{
		{Host: "unc", Route: "%s", Cost: 0},
		{Host: "duke", Route: "duke!%s", Cost: 500},
		{Host: "research", Route: "duke!research!%s", Cost: 800},
		{Host: "ucbvax", Route: "duke!research!ucbvax!%s", Cost: 1100},
		{Host: ".edu", Route: "seismo!%s", Cost: 900},
		{Host: ".rutgers.edu", Route: "seismo!ru!%s", Cost: 950},
		{Host: ".com", Route: "gateway!%s", Cost: 700},
		{Host: "dup.host.", Route: "dup!%s", Cost: 100}, // trailing dot normalized away
		{Host: "dup.host", Route: "cheap!%s", Cost: 50}, // wins the dedup
	}
}

func compileT(t *testing.T, es []resolver.Entry, opts resolver.Options) []byte {
	t.Helper()
	img, err := Compile(es, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return img
}

func openT(t *testing.T, img []byte) *Reader {
	t.Helper()
	r, err := OpenBytes(img)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	return r
}

// TestRoundTrip compiles entries and checks the reader answers exactly
// like the in-memory resolver built from the same inputs.
func TestRoundTrip(t *testing.T) {
	for _, fold := range []bool{false, true} {
		opts := resolver.Options{FoldCase: fold}
		es := testEntries()
		want := resolver.New(es, opts)
		r := openT(t, compileT(t, es, opts))
		got := resolver.NewBacked(r, r.Options())

		if r.Options() != opts {
			t.Errorf("fold=%v: Options = %+v", fold, r.Options())
		}
		if got.Len() != want.Len() {
			t.Fatalf("fold=%v: Len = %d want %d", fold, got.Len(), want.Len())
		}
		for i, we := range want.Entries() {
			if ge := r.EntryAt(i); ge != we {
				t.Errorf("fold=%v: entry %d = %+v want %+v", fold, i, ge, we)
			}
		}
		queries := []string{
			"unc", "duke", "dup.host", "dup.host.", "DUKE",
			"caip.rutgers.edu", "x.edu", "deep.caip.rutgers.edu",
			"a.com", "nosuch", "nosuch.org", ".edu", "edu",
		}
		for _, q := range queries {
			we, wok := want.Lookup(q)
			ge, gok := got.Lookup(q)
			if wok != gok || we != ge {
				t.Errorf("fold=%v: Lookup(%q) = %+v,%v want %+v,%v", fold, q, ge, gok, we, wok)
			}
			wr, werr := want.Resolve(q, "user")
			gr, gerr := got.Resolve(q, "user")
			if (werr == nil) != (gerr == nil) || wr != gr {
				t.Errorf("fold=%v: Resolve(%q) = %+v,%v want %+v,%v", fold, q, gr, gerr, wr, werr)
			}
		}
	}
}

// TestDeterministic compiles the same entries twice, in different input
// orders, and expects identical bytes.
func TestDeterministic(t *testing.T) {
	es := testEntries()
	a := compileT(t, es, resolver.Options{})
	rev := make([]resolver.Entry, len(es))
	for i, e := range es {
		rev[len(es)-1-i] = e
	}
	// Reversal flips which duplicate is seen first; resolver keeps the
	// cheapest, so the canonical set is unchanged.
	b := compileT(t, rev, resolver.Options{})
	if !bytes.Equal(a, b) {
		t.Error("same canonical entries produced different images")
	}
}

// TestEmpty round-trips a database with no routes.
func TestEmpty(t *testing.T) {
	r := openT(t, compileT(t, nil, resolver.Options{}))
	if r.Len() != 0 {
		t.Errorf("Len = %d", r.Len())
	}
	if _, ok := r.LookupExact([]byte("x")); ok {
		t.Error("lookup hit in empty db")
	}
	if e, d := r.SuffixBest([][]byte{[]byte("a"), []byte("b")}, 1); e != -1 || d != 0 {
		t.Errorf("SuffixBest = %d,%d", e, d)
	}
}

// TestCompileRejects covers writer-side validation.
func TestCompileRejects(t *testing.T) {
	if _, err := Compile([]resolver.Entry{{Host: "a", Route: "a!user"}}, resolver.Options{}); err == nil {
		t.Error("route without the marker accepted")
	}
	if _, err := Compile([]resolver.Entry{{Host: "", Route: "%s"}}, resolver.Options{}); err == nil {
		t.Error("empty host accepted")
	}
}

// TestOpenFile exercises the mmap path end to end.
func TestOpenFile(t *testing.T) {
	img := compileT(t, testEntries(), resolver.Options{})
	path := filepath.Join(t.TempDir(), "routes.rdb")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if i, ok := r.LookupExact([]byte("duke")); !ok || r.EntryAt(i).Route != "duke!%s" {
		t.Errorf("lookup duke failed")
	}
	crc, err := FileChecksum(path)
	if err != nil {
		t.Fatalf("FileChecksum: %v", err)
	}
	if crc != r.Checksum() {
		t.Errorf("FileChecksum = %08x, Reader.Checksum = %08x", crc, r.Checksum())
	}
	if err := r.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := r.Close(); err != nil { // idempotent
		t.Errorf("second Close: %v", err)
	}
}

// TestOpenErrorNamesPathOnce pins Open's error text: the package
// prefix and the path once each, then the validation error, which it
// wraps; and a missing file's error is still the file system's own to
// errors.Is.
func TestOpenErrorNamesPathOnce(t *testing.T) {
	img := compileT(t, testEntries(), resolver.Options{})
	dir := t.TempDir()
	path := filepath.Join(dir, "cut.rdb")
	if err := os.WriteFile(path, img[:6], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if want := "rdb: " + path + ": corrupt database: file too short (6 bytes)"; err == nil || err.Error() != want {
		t.Errorf("Open(6-byte head) = %v, want %q", err, want)
	}
	if inner := errors.Unwrap(err); inner == nil || inner.Error() != "corrupt database: file too short (6 bytes)" {
		t.Errorf("Open error %v wraps %v, want the validation error", err, inner)
	}
	if _, err := Open(filepath.Join(dir, "missing.rdb")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Open(missing) = %v, want fs.ErrNotExist", err)
	}
}

// TestTruncations opens every prefix of a valid image; all must fail
// cleanly (the last-byte-removed case loses the tail magic, shorter
// ones lose sections or the header).
func TestTruncations(t *testing.T) {
	img := compileT(t, testEntries(), resolver.Options{})
	for n := 0; n < len(img); n++ {
		if _, err := OpenBytes(img[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestBitFlips flips every bit of a small valid image; every mutation
// must either fail validation or (never) be silently accepted with the
// same checksum. A flip that leaves the file valid would have to beat
// CRC-32C, so any acceptance is a bug.
func TestBitFlips(t *testing.T) {
	img := compileT(t, testEntries()[:4], resolver.Options{})
	mut := make([]byte, len(img))
	for i := 0; i < len(img); i++ {
		for b := 0; b < 8; b++ {
			copy(mut, img)
			mut[i] ^= 1 << b
			if _, err := OpenBytes(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, b)
			}
		}
	}
}

// TestHostileImages hand-crafts corruptions that keep the checksum
// valid (recomputing it after the edit), so the structural validators
// themselves are what must catch them.
func TestHostileImages(t *testing.T) {
	base := compileT(t, testEntries(), resolver.Options{})

	mutate := func(f func(img []byte)) []byte {
		img := bytes.Clone(base)
		f(img)
		return resealT(img)
	}

	cases := map[string][]byte{
		"entry count zeroed":   mutate(func(img []byte) { le.PutUint64(img[16:], 0) }),
		"entry count inflated": mutate(func(img []byte) { le.PutUint64(img[16:], 1<<40) }),
		"slots not pow2":       mutate(func(img []byte) { le.PutUint64(img[24:], 13) }),
		"strings shifted":      mutate(func(img []byte) { le.PutUint64(img[32:], 120) }),
		"trie root wild":       mutate(func(img []byte) { le.PutUint64(img[96:], 1<<30) }),
		"reserved nonzero":     mutate(func(img []byte) { img[120] = 1 }),
		// A wrong stored section checksum under a resealed footer must be
		// caught by the per-section verification, not the body CRC.
		"section checksum wrong": func() []byte {
			img := bytes.Clone(base)
			img[secCRCOff+4]++ // entries section CRC, low byte
			le.PutUint32(img[len(img)-footerSize:], crcChecksum(img[:len(img)-footerSize]))
			return img
		}(),
		"host unsorted": mutate(func(img []byte) {
			// Swap the first two entry records; hosts fall out of order.
			entOff := le.Uint64(img[48:])
			a := img[entOff : entOff+entrySize]
			b := img[entOff+entrySize : entOff+2*entrySize]
			tmp := bytes.Clone(a)
			copy(a, b)
			copy(b, tmp)
		}),
		"hash slot dangling": mutate(func(img []byte) {
			hashOff := le.Uint64(img[64:])
			hashLen := le.Uint64(img[72:])
			for s := uint64(0); s < hashLen/4; s++ {
				if le.Uint32(img[hashOff+s*4:]) != 0 {
					le.PutUint32(img[hashOff+s*4:], uint32(1<<20))
					break
				}
			}
		}),
		"hash entry unreachable": mutate(func(img []byte) {
			hashOff := le.Uint64(img[64:])
			hashLen := le.Uint64(img[72:])
			for s := uint64(0); s < hashLen/4; s++ {
				if le.Uint32(img[hashOff+s*4:]) != 0 {
					le.PutUint32(img[hashOff+s*4:], 0)
					break
				}
			}
		}),
		"trie child above parent": mutate(func(img []byte) {
			// Point the root's first child at the root itself: a cycle.
			trieOff := le.Uint64(img[80:])
			root := le.Uint64(img[96:])
			le.PutUint32(img[trieOff+root+trieNodeFixed+8:], uint32(root))
		}),
	}
	// A header edit outside every section under a stale footer: the
	// section checksums still match, so only the footer catches it —
	// accepting it would serve a map built case-sensitively as folded,
	// silently missing MixedCase.
	mixed := compileT(t, append(testEntries(), resolver.Entry{Host: "MixedCase", Route: "mc!%s", Cost: 7}), resolver.Options{})
	mixed[12] ^= flagFoldCase
	cases["fold flag flipped, stale footer"] = mixed
	for name, img := range cases {
		if _, err := OpenBytes(img); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Hash tables whose every slot value is in range, so only the
	// pigeonhole counts (n non-empty slots marking n distinct entries)
	// can catch them; the error must still name the first bad slot.
	n := le.Uint64(base[16:])
	hashOff := le.Uint64(base[64:])
	nslots := le.Uint64(base[24:])
	slot := func(img []byte, s uint64) uint32 { return le.Uint32(img[hashOff+s*4:]) }
	var full []uint64 // the non-empty slots, ascending
	for s := uint64(0); s < nslots; s++ {
		if slot(base, s) != 0 {
			full = append(full, s)
		}
	}
	s1, s2 := full[0], full[1]
	dup := slot(base, s1)
	exact := []struct {
		name string
		img  []byte
		want string
	}{
		{"one entry in two slots, another missing",
			mutate(func(img []byte) { le.PutUint32(img[hashOff+s2*4:], dup) }),
			fmt.Sprintf("entry %d in two hash slots", dup-1)},
		{"slot value n+1",
			mutate(func(img []byte) { le.PutUint32(img[hashOff+s2*4:], uint32(n+1)) }),
			fmt.Sprintf("hash slot %d: entry %d out of range", s2, n)},
		{"no empty slot",
			mutate(func(img []byte) {
				for s := uint64(0); s < nslots; s++ {
					if slot(img, s) == 0 {
						le.PutUint32(img[hashOff+s*4:], 1)
					}
				}
			}),
			"entry 0 in two hash slots"},
	}
	for _, c := range exact {
		_, err := OpenBytes(c.img)
		if want := "rdb: corrupt database: " + c.want; err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", c.name, err, want)
		}
	}
}

// TestVerifyReachable pins the validation split: an image whose hash
// table is well-shaped (in-range, unique, complete, has empties) but
// hides one entry behind an empty slot passes Open — lookups for that
// entry safely miss — and is rejected by the deep VerifyReachable
// audit that mkdb runs on conversions.
func TestVerifyReachable(t *testing.T) {
	img := compileT(t, testEntries(), resolver.Options{})
	r := openT(t, img)
	if err := r.VerifyReachable(); err != nil {
		t.Fatalf("pristine image failed VerifyReachable: %v", err)
	}

	hashOff := le.Uint64(img[64:])
	slots := le.Uint64(img[24:])
	slot := func(s uint64) uint32 { return le.Uint32(img[hashOff+s*4:]) }
	setSlot := func(s uint64, v uint32) { le.PutUint32(img[hashOff+s*4:], v) }

	// Move one entry's slot to an empty slot whose predecessor is also
	// empty and which is not the entry's home — its probe sequence now
	// crosses an empty slot before arriving.
	moved := uint32(0)
	var movedHost string
	for s := uint64(0); s < slots && moved == 0; s++ {
		v := slot(s)
		if v == 0 {
			continue
		}
		host := resolver.New(testEntries(), resolver.Options{}).Entries()[v-1].Host
		home := resolver.KeyHash(host) & (slots - 1)
		for tgt := uint64(0); tgt < slots; tgt++ {
			prev := (tgt - 1 + slots) % slots
			if tgt != home && slot(tgt) == 0 && slot(prev) == 0 && prev != s {
				setSlot(s, 0)
				setSlot(tgt, v)
				moved = v
				movedHost = host
				break
			}
		}
	}
	if moved == 0 {
		t.Fatal("could not construct an unreachable slot")
	}
	resealT(img)

	r2, err := OpenBytes(img)
	if err != nil {
		t.Fatalf("well-shaped-but-unreachable image rejected at open: %v", err)
	}
	if _, ok := r2.LookupExact([]byte(movedHost)); ok {
		t.Errorf("hidden entry %q still found", movedHost)
	}
	if err := r2.VerifyReachable(); err == nil {
		t.Error("VerifyReachable accepted a hidden entry")
	}
}

// TestCostRoundTrip checks negative and large costs survive the int64
// encoding.
func TestCostRoundTrip(t *testing.T) {
	es := []resolver.Entry{
		{Host: "neg", Route: "n!%s", Cost: cost.Cost(-12345)},
		{Host: "big", Route: "b!%s", Cost: cost.Cost(1) << 60},
	}
	r := openT(t, compileT(t, es, resolver.Options{}))
	for _, e := range es {
		i, ok := r.LookupExact([]byte(e.Host))
		if !ok || r.EntryAt(i).Cost != e.Cost {
			t.Errorf("cost for %q: got %v want %v", e.Host, r.EntryAt(i).Cost, e.Cost)
		}
	}
}

// crcChecksum recomputes the integrity checksum the way the writer
// does (test helper for resealing mutated images).
func crcChecksum(body []byte) uint32 {
	return crc32.Checksum(body, crcTable)
}

// resealT recomputes the stored per-section checksums (from the
// possibly-mutated header's section table, clamped to the body since a
// hostile header may point anywhere) and the footer CRC, so only
// structural validation stands between a mutation and acceptance.
func resealT(img []byte) []byte {
	body := uint64(len(img) - footerSize)
	clamp := func(off, length uint64) []byte {
		if off > body {
			return nil
		}
		if length > body-off {
			length = body - off
		}
		return img[off : off+length]
	}
	for i, sec := range [numSections][]byte{
		clamp(le.Uint64(img[32:]), le.Uint64(img[40:])),
		clamp(le.Uint64(img[48:]), le.Uint64(img[56:])),
		clamp(le.Uint64(img[64:]), le.Uint64(img[72:])),
		clamp(le.Uint64(img[80:]), le.Uint64(img[88:])),
	} {
		le.PutUint32(img[secCRCOff+4*i:], crcChecksum(sec))
	}
	le.PutUint32(img[len(img)-footerSize:], crcChecksum(img[:len(img)-footerSize]))
	return img
}

// compileV1 marshals through the version-1 compatibility path: the
// 112-byte header with no per-section checksums, as written before the
// format bump.
func compileV1(t *testing.T, es []resolver.Entry, opts resolver.Options) []byte {
	t.Helper()
	r := resolver.New(es, opts)
	entries, slots := r.Index()
	img, err := marshal(entries, slots, opts, version1)
	if err != nil {
		t.Fatalf("marshal v1: %v", err)
	}
	return img
}

// TestVersionCompat pins the format bump both ways: the writer emits
// version 2, and a version-1 image — what every previously published
// database is — still opens and answers identically.
func TestVersionCompat(t *testing.T) {
	es := testEntries()
	opts := resolver.Options{}
	v2 := openT(t, compileT(t, es, opts))
	if v2.version != version2 {
		t.Errorf("Compile emits version %d, want %d", v2.version, version2)
	}

	v1img := compileV1(t, es, opts)
	if got := le.Uint32(v1img[8:]); got != version1 {
		t.Fatalf("compileV1 wrote version %d", got)
	}
	v1, err := OpenBytes(v1img)
	if err != nil {
		t.Fatalf("version-1 image rejected: %v", err)
	}
	if v1.version != version1 {
		t.Errorf("version = %d, want %d", v1.version, version1)
	}
	if v1.Len() != v2.Len() {
		t.Fatalf("v1 Len = %d, v2 Len = %d", v1.Len(), v2.Len())
	}
	for i := 0; i < v1.Len(); i++ {
		if v1.EntryAt(i) != v2.EntryAt(i) {
			t.Errorf("entry %d differs across versions: %+v vs %+v", i, v1.EntryAt(i), v2.EntryAt(i))
		}
	}
	// Section contents are version-independent (only the header grew),
	// so the computed v1 section checksums match v2's stored ones.
	if v1.secCRC != v2.secCRC {
		t.Errorf("section checksums differ across versions: %08x vs %08x", v1.secCRC, v2.secCRC)
	}
}

// TestAppendResolveMapped: the zero-copy append path over a compiled
// image answers byte-identically to the in-memory string path for every
// query shape, and allocates nothing at steady state.
func TestAppendResolveMapped(t *testing.T) {
	for _, fold := range []bool{false, true} {
		opts := resolver.Options{FoldCase: fold}
		es := testEntries()
		want := resolver.New(es, opts)
		r := openT(t, compileT(t, es, opts))
		got := resolver.NewBacked(r, r.Options())

		queries := []string{
			"unc", "duke", "ucbvax", "dup.host", "dup.host.",
			"caip.rutgers.edu", "x.edu", "deep.sub.rutgers.edu",
			"shop.example.com", ".edu", ".sub.edu", "DUKE", "X.EDU",
			"nowhere", "a", "", ".", "a..edu", "nomarker",
		}
		var s resolver.Scratch
		for _, q := range queries {
			res, err := want.Resolve(q, "honey")
			out, ok := got.AppendResolve(nil, []byte(q), []byte("honey"), &s)
			if ok != (err == nil) {
				t.Errorf("fold=%v: AppendResolve(%q) ok=%v, want err=%v", fold, q, ok, err)
				continue
			}
			if ok && string(out) != res.Address() {
				t.Errorf("fold=%v: AppendResolve(%q) = %q, want %q", fold, q, out, res.Address())
			}
		}

		dst := make([]byte, 0, 256)
		suffixQ, exactQ, user := []byte("caip.rutgers.edu"), []byte("duke"), []byte("honey")
		if n := testing.AllocsPerRun(100, func() {
			dst, _ = got.AppendResolve(dst[:0], suffixQ, user, &s)
			dst, _ = got.AppendResolve(dst[:0], exactQ, user, &s)
		}); n != 0 {
			t.Errorf("fold=%v: mapped AppendResolve allocates %.1f per 2 queries, want 0", fold, n)
		}
	}
}

// TestCRCCombine pins the CRC-32C combination the footer check is
// derived with: CRC(a‖b) from CRC(a), CRC(b) and len(b), for lengths
// around the power-of-two boundaries the combination walks.
func TestCRCCombine(t *testing.T) {
	buf := make([]byte, 5000)
	for i := range buf {
		buf[i] = byte(i*131 + i>>7)
	}
	for _, split := range [][2]int{{0, 0}, {0, 7}, {7, 0}, {1, 1}, {3, 8}, {64, 63}, {100, 1024}, {1000, 4000}, {4999, 1}} {
		a, b := buf[:split[0]], buf[split[0]:split[0]+split[1]]
		want := crcChecksum(buf[:split[0]+split[1]])
		if got := crcCombine(crcChecksum(a), crcChecksum(b), uint64(len(b))); got != want {
			t.Errorf("combine(%d, %d) = %08x, want %08x", len(a), len(b), got, want)
		}
	}
}
