package lexer

import (
	"fmt"
	"strings"
)

// Scanner is the hand-built scanner: a byte-at-a-time recognizer for the
// map language. It is the zero-allocation fast path of the parse phase:
// the source is held as a string, so every token's Text is a substring
// sharing the source's backing memory — no per-token allocation at all.
// (Names are later interned into the graph's hash table, so the source
// need not stay live once parsing ends; see graph.Ref.)
//
// Lexical rules (DESIGN.md §2):
//
//   - '#' starts a comment running to end of line.
//   - Statements are newline-terminated; Newline tokens are significant.
//   - A backslash immediately before a newline continues the line.
//   - A newline following a comma is suppressed (a trailing comma continues
//     the statement, the idiom long map files rely on).
//   - '(' ... ')' brackets a cost expression; the scanner returns the raw
//     text between the balanced parens as a single CostText token. Nested
//     parens are respected; newlines inside costs are errors.
//   - '!', '@', '%', ':', '^' are NetChar tokens.
//   - ',', '=', '{', '}' are themselves.
//   - Anything else that is a name byte starts a Name.
type Scanner struct {
	src  string
	file string
	pos  int
	line int
	// lineStart is the byte offset of the current line's first byte;
	// columns are derived as pos-lineStart+1 only when a token or error is
	// emitted, so the hot scanning loops do no per-byte column accounting.
	lineStart int

	lastKind Kind // kind of the last emitted token; Invalid before the first
	sawEOF   bool
}

// NewScanner returns a Scanner over src, reporting positions against the
// given file name. The byte slice is converted to a string once (one copy
// per file); callers that already hold a string should use NewScannerString
// to avoid even that.
func NewScanner(file string, src []byte) *Scanner {
	return NewScannerString(file, string(src))
}

// NewScannerString returns a Scanner over src without copying it. Token
// text aliases src.
func NewScannerString(file string, src string) *Scanner {
	return &Scanner{src: src, file: file, line: 1}
}

// NewScannerStringAt is NewScannerString with positions reported from
// the given 1-based starting line — for scanning a chunk of a larger
// source that begins at a line start (a SplitStatements boundary), so
// columns stay exact too.
func NewScannerStringAt(file string, src string, line int) *Scanner {
	return &Scanner{src: src, file: file, line: line}
}

// Offset returns the byte offset just past the last token returned: for
// a Newline token, the first byte of the next line.
func (s *Scanner) Offset() int { return s.pos }

// col returns the 1-based column of the current position.
func (s *Scanner) col() int { return s.pos - s.lineStart + 1 }

func (s *Scanner) errorf(format string, args ...any) *ScanError {
	return &ScanError{File: s.file, Line: s.line, Col: s.col(), Msg: fmt.Sprintf(format, args...)}
}

// netCharText maps each routing operator byte to a preallocated one-byte
// string, so NetChar tokens allocate nothing.
var netCharText = func() [256]string {
	var t [256]string
	for _, c := range []byte{'!', '@', '%', ':', '^'} {
		t[c] = string(c)
	}
	return t
}()

// nameByte is the isNameByte predicate as a lookup table, for the scanning
// loop.
var nameByte = func() [256]bool {
	var t [256]bool
	for i := 0; i < 256; i++ {
		t[i] = isNameByte(byte(i))
	}
	return t
}()

// Next returns the next token. At end of input it returns one final EOF
// token, preceded by a synthetic Newline if the input did not end in one,
// so the parser always sees terminated statements.
func (s *Scanner) Next() (Token, error) {
	var tok Token
	err := s.NextTok(&tok)
	return tok, err
}

// NextTok is Next writing into a caller-provided token, sparing the parser
// a 56-byte struct copy per token. On error *tok may hold a partially
// filled token; callers needing the previous token's position must save it
// before the call.
func (s *Scanner) NextTok(tok *Token) error {
	err := s.next(tok)
	if err == nil {
		s.lastKind = tok.Kind
	}
	return err
}

func (s *Scanner) next(tok *Token) error {
	src := s.src
	for {
		// Skip horizontal whitespace, comments, and continuations.
		for s.pos < len(src) {
			c := src[s.pos]
			switch {
			case c == ' ' || c == '\t' || c == '\r':
				s.pos++
			case c == '#':
				// Comments cannot contain the newline, so skip to it in
				// one vectorized search.
				if i := strings.IndexByte(src[s.pos:], '\n'); i < 0 {
					s.pos = len(src)
				} else {
					s.pos += i
				}
			case c == '\\' && s.pos+1 < len(src) && src[s.pos+1] == '\n':
				s.pos += 2 // backslash + newline
				s.line++
				s.lineStart = s.pos
			default:
				goto skipped
			}
		}
	skipped:
		if s.pos >= len(src) {
			if !s.sawEOF {
				s.sawEOF = true
				if s.lastKind != Newline && s.lastKind != Invalid {
					*tok = Token{Kind: Newline, File: s.file, Line: s.line, Col: s.col()}
					return nil
				}
			}
			*tok = Token{Kind: EOF, File: s.file, Line: s.line, Col: s.col()}
			return nil
		}

		*tok = Token{File: s.file, Line: s.line, Col: s.col()}
		c := src[s.pos]
		switch {
		case c == '\n':
			s.pos++
			s.line++
			s.lineStart = s.pos
			if s.lastKind == Comma {
				continue // trailing comma: statement continues on next line
			}
			tok.Kind = Newline
			return nil

		case c == ',':
			s.pos++
			tok.Kind = Comma
			return nil

		case c == '=':
			s.pos++
			tok.Kind = Equals
			return nil

		case c == '{':
			s.pos++
			tok.Kind = LBrace
			return nil

		case c == '}':
			s.pos++
			tok.Kind = RBrace
			return nil

		case c == '(':
			s.pos++
			start := s.pos
			depth := 1
			// Newlines are illegal inside a cost expression, so this loop
			// never crosses a line boundary and needs no line accounting.
			for s.pos < len(src) {
				b := src[s.pos]
				if b == '\n' {
					return s.errorf("newline inside cost expression")
				}
				if b == '(' {
					depth++
				}
				if b == ')' {
					depth--
					if depth == 0 {
						break
					}
				}
				s.pos++
			}
			if depth != 0 {
				return s.errorf("unterminated cost expression")
			}
			tok.Kind = CostText
			tok.Text = src[start:s.pos]
			s.pos++ // closing paren
			return nil

		case IsNetChar(c):
			s.pos++
			tok.Kind = NetChar
			tok.Text = netCharText[c]
			return nil

		case nameByte[c]:
			start := s.pos
			for s.pos < len(src) && nameByte[src[s.pos]] {
				s.pos++
			}
			tok.Kind = Name
			tok.Text = src[start:s.pos]
			return nil

		default:
			return s.errorf("illegal character %q", c)
		}
	}
}

// All scans the entire input, returning the token stream up to and
// including EOF. Mostly a convenience for tests and benchmarks.
func (s *Scanner) All() ([]Token, error) {
	var toks []Token
	for {
		t, err := s.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
