// Package whatif answers hypothetical routing questions against a live
// remap engine: "what if this link died", "why did this route win",
// "which hosts move if I change this cost". The paper devotes most of
// its length to feeding the map — tuning costs, marking links DEAD,
// hunting bogus routes — and each such question classically costs a
// source edit plus a full re-run. Here an overlay spec is compiled into
// a patched snapshot view and mapped under the engine's read lock —
// warm, on a copy of the vantage's solved tree when the vantage is
// resident — and cached by (generation, vantage, canonical spec) so
// repeating a what-if is a lookup, not a mapping run.
package whatif

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pathalias/internal/cost"
)

// MaxEdits bounds how many edits one overlay spec may carry. A what-if
// is a question, not a map upload; the bound keeps a hostile query from
// smuggling in an arbitrarily large edit script (each edit costs graph
// lookups and a touched CSR row at evaluation time).
const MaxEdits = 64

// ErrEmptySpec is the error for an overlay spec that holds no edits.
var ErrEmptySpec = errors.New("whatif: empty overlay spec")

// EditOp is the kind of one hypothetical edit.
type EditOp uint8

const (
	// OpDead removes the directed link — the paper's "DEAD link"
	// question. Equivalent to deleting the link from the source.
	OpDead EditOp = iota
	// OpCost overrides the directed link's cost.
	OpCost
	// OpLink adds a directed link that does not exist.
	OpLink
)

func (op EditOp) String() string {
	switch op {
	case OpDead:
		return "dead"
	case OpCost:
		return "cost"
	default:
		return "link"
	}
}

// Edit is one hypothetical edit, still textual: host names are resolved
// against the live graph at evaluation time, not parse time.
type Edit struct {
	Op       EditOp
	From, To string
	Cost     cost.Cost // OpCost and OpLink
}

// Spec is a parsed overlay spec: an ordered, validated edit list.
type Spec struct {
	Edits []Edit
}

// ParseSpec parses an overlay spec. The grammar is line-protocol- and
// URL-friendly: edits are separated by ';' or newlines, and tokens
// within an edit by any run of spaces, tabs, or commas — so
// "dead a b; cost a b DEMAND" and "dead,a,b;cost,a,b,DEMAND" (the form
// that survives as one whitespace-delimited protocol token) parse the
// same. Costs take the map source's cost grammar (symbols and
// arithmetic, e.g. DEMAND or HOURLY*4) but must be one token.
//
// Parsing validates shape only — op names, arity, self-links, duplicate
// edits, cost range, the MaxEdits bound. Whether the named hosts and
// links exist is checked against the live graph when the spec is
// compiled.
func ParseSpec(s string) (*Spec, error) {
	spec := &Spec{}
	seen := make(map[string]EditOp)
	for _, stmt := range strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == '\n' }) {
		toks := strings.FieldsFunc(stmt, func(r rune) bool {
			return r == ' ' || r == '\t' || r == ',' || r == '\r'
		})
		if len(toks) == 0 {
			continue // empty statement (trailing ';', blank line)
		}
		if len(spec.Edits) >= MaxEdits {
			return nil, fmt.Errorf("whatif: too many edits (max %d)", MaxEdits)
		}
		var ed Edit
		var wantArgs int
		switch toks[0] {
		case "dead":
			ed.Op, wantArgs = OpDead, 2
		case "cost":
			ed.Op, wantArgs = OpCost, 3
		case "link":
			ed.Op, wantArgs = OpLink, 3
		default:
			return nil, fmt.Errorf("whatif: unknown op %q (want dead, cost, or link)", toks[0])
		}
		if len(toks)-1 != wantArgs {
			return nil, fmt.Errorf("whatif: %s wants %d arguments, got %d", toks[0], wantArgs, len(toks)-1)
		}
		ed.From, ed.To = toks[1], toks[2]
		if ed.From == ed.To {
			return nil, fmt.Errorf("whatif: self-link %s %s", ed.From, ed.To)
		}
		if wantArgs == 3 {
			c, err := cost.Eval(toks[3])
			if err != nil {
				return nil, fmt.Errorf("whatif: bad cost %q: %v", toks[3], err)
			}
			if c < 0 || c >= cost.Infinity {
				return nil, fmt.Errorf("whatif: cost %d out of range [0, %d)", int64(c), int64(cost.Infinity))
			}
			ed.Cost = c
		}
		pair := ed.From + "\x00" + ed.To
		if _, dup := seen[pair]; dup {
			return nil, fmt.Errorf("whatif: duplicate edit for %s!%s", ed.From, ed.To)
		}
		seen[pair] = ed.Op
		spec.Edits = append(spec.Edits, ed)
	}
	if len(spec.Edits) == 0 {
		return nil, ErrEmptySpec
	}
	return spec, nil
}

// fold lower-cases every host name in place (for engines built with -i,
// where the graph folds names; folding here keeps the cache canonical).
func (s *Spec) fold() {
	for i := range s.Edits {
		s.Edits[i].From = strings.ToLower(s.Edits[i].From)
		s.Edits[i].To = strings.ToLower(s.Edits[i].To)
	}
}

// sorted returns the edits in canonical (op, from, to) order.
func (s *Spec) sorted() []Edit {
	out := append([]Edit(nil), s.Edits...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return out
}

// Canonical renders the spec in canonical form: edits sorted by
// (op, from, to), costs as plain integers, joined by "; ". Two specs
// with the same meaning render identically, which is what the overlay
// cache keys on; parsing a canonical form back yields the same spec.
func (s *Spec) Canonical() string {
	var b strings.Builder
	for i, ed := range s.sorted() {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(ed.Op.String())
		b.WriteByte(' ')
		b.WriteString(ed.From)
		b.WriteByte(' ')
		b.WriteString(ed.To)
		if ed.Op != OpDead {
			fmt.Fprintf(&b, " %d", int64(ed.Cost))
		}
	}
	return b.String()
}

// LineToken renders the spec as a single whitespace-free token (commas
// for separators), the form a line-protocol overlay= parameter needs.
func (s *Spec) LineToken() string {
	var b strings.Builder
	for i, ed := range s.sorted() {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(ed.Op.String())
		b.WriteByte(',')
		b.WriteString(ed.From)
		b.WriteByte(',')
		b.WriteString(ed.To)
		if ed.Op != OpDead {
			fmt.Fprintf(&b, ",%d", int64(ed.Cost))
		}
	}
	return b.String()
}
