package parser

// Single-file parallel scanning. The multi-file parallel path helps only
// when the map arrives as many files; the realistic published-map shape
// is one huge file, which used to pin phase one to a single core. Here
// one input is pre-cut at statement boundaries (lexer.SplitStatements),
// each chunk scanned by an independent fileScanner, and the chunk
// fragments concatenated into one — byte-identical to a serial scan,
// because chunk boundaries are exactly the points where a fresh scanner
// and the serial scanner agree.
//
// Anything that could make concatenation diverge from a serial scan
// falls back to one: a chunk with errors (the serial scanner abandons a
// file at its first scan error, and statement-level recovery interacts
// with the MaxErrors budget, which is file-global), or a file{} scope
// switch in a non-final chunk (later chunks would have scanned their
// pending dead/delete items under the wrong private scope). Error-free
// fragments concatenate exactly: statement order is position order,
// every budget counter is zero on both paths, and only opNet member
// ranges need re-basing onto the merged member array.

import (
	"strings"
	"sync"

	"pathalias/internal/lexer"
)

// minChunkBytes is the smallest chunk worth a goroutine: below this the
// split pre-scan and concatenation overhead beat the parallel win.
const minChunkBytes = 256 << 10

// scanFileParallel scans one input with up to workers chunk scanners,
// returning a fragment byte-identical to scanFile's.
func scanFileParallel(opts Options, in Input, workers int) *fragment {
	if workers <= 1 || len(in.Src) < 2*minChunkBytes {
		return scanFile(opts, in)
	}
	chunks := workers
	if m := len(in.Src) / minChunkBytes; chunks > m {
		chunks = m
	}
	return scanFileChunks(opts, in, chunks)
}

// scanFileChunks is scanFileParallel past its size gates: split into (at
// most) the given chunk count, scan, concatenate or fall back. Split out
// so tests can force chunking on small sources.
func scanFileChunks(opts Options, in Input, chunks int) *fragment {
	offs := lexer.SplitStatements(in.Src, chunks)
	if len(offs) <= 1 {
		return scanFile(opts, in)
	}

	frags := make([]*fragment, len(offs))
	var wg sync.WaitGroup
	line := 1
	for i, off := range offs {
		end := len(in.Src)
		if i+1 < len(offs) {
			end = offs[i+1]
		}
		src := in.Src[off:end]
		wg.Add(1)
		go func(i int, src string, line int) {
			defer wg.Done()
			frags[i] = scanChunk(opts, in.Name, src, line)
		}(i, src, line)
		// Chunks begin at line starts, so the next chunk's first line is
		// this chunk's newline count further on.
		line += strings.Count(src, "\n")
	}
	wg.Wait()

	stmts, members, warns, pend := 0, 0, 0, 0
	for i, f := range frags {
		if len(f.errors) > 0 {
			// The serial scanner's error recovery is not chunk-local
			// (scan errors abandon the whole file); rescan serially so
			// diagnostics and the statement cutoff stay byte-identical.
			return scanFile(opts, in)
		}
		if f.sawFile && i < len(frags)-1 {
			// file{} switched the private scope: chunks after it scanned
			// their pending items under the wrong scope.
			return scanFile(opts, in)
		}
		stmts += len(f.stmts)
		members += len(f.members)
		warns += len(f.warnings)
		pend += len(f.pending)
	}

	out := &fragment{name: in.Name, src: in.Src, stmts: make([]stmt, 0, stmts)}
	if members > 0 {
		out.members = make([]name, 0, members)
	}
	if warns > 0 {
		out.warnings = make([]note, 0, warns)
	}
	if pend > 0 {
		out.pending = make([]pendingLinkOp, 0, pend)
	}
	for i, f := range frags {
		appendFragment(out, f, int32(offs[i]), 0)
	}
	return out
}

// appendFragment concatenates f, scanned from a piece of out's source
// that begins at byte off, onto out: statement, warning and pending
// offsets shift by off, and opNet member ranges, which index f's member
// array from mlo on, re-base onto out's.
func appendFragment(out, f *fragment, off, mlo int32) {
	start := len(out.stmts)
	out.stmts = append(out.stmts, f.stmts...)
	if base := int32(len(out.members)) - mlo; off != 0 || base != 0 {
		for j := start; j < len(out.stmts); j++ {
			st := &out.stmts[j]
			st.off += off
			if st.op == opNet {
				st.mlo += base
				st.mhi += base
			}
		}
	}
	out.members = append(out.members, f.members...)
	start = len(out.warnings)
	out.warnings = append(out.warnings, f.warnings...)
	for j := start; j < len(out.warnings); j++ {
		out.warnings[j].off += off
	}
	start = len(out.pending)
	out.pending = append(out.pending, f.pending...)
	for j := start; j < len(out.pending); j++ {
		out.pending[j].off += off
	}
	out.sawFile = out.sawFile || f.sawFile
}

// scanChunk scans one chunk of a larger source into its own fragment,
// with token positions reported from the chunk's true starting line and
// offsets relative to the chunk.
func scanChunk(opts Options, name, src string, line int) *fragment {
	f, _ := scanChunkUntil(opts, name, src, line, len(src), nil)
	return f
}

// scanChunkUntil is scanChunk stopping at the first statement start
// until accepts, if any; it reports that offset, or len(src) when the
// scan ran to the end. hint is the expected scanned length, for sizing
// the replay log.
func scanChunkUntil(opts Options, name, src string, line, hint int, until func(off int) bool) (*fragment, int) {
	f := &fragment{name: name, src: src, stmts: make([]stmt, 0, hint/14+16)}
	s := &fileScanner{
		frag:    f,
		opts:    opts,
		sc:      lexer.NewScannerStringAt(name, src, line),
		src:     src,
		curFile: name,
		until:   until,
	}
	s.run()
	if s.stopped {
		return f, int(s.bound)
	}
	return f, len(src)
}
