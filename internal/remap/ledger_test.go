package remap

import (
	"fmt"

	"pathalias/internal/certify"
	"pathalias/internal/graph"
)

// VerifyLedger runs the engine's ledger invariant checks
// (core.verifyLedger) for the package's external tests.
func VerifyLedger(m *Multi) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.e.verifyLedger()
}

// verifyLedger checks the journal's write-side bookkeeping against the
// graph and the journals it was built from:
//   - every ordinary link has a non-empty declaration chain, in global
//     declaration order, whose first minimum is the link's (Cost, Op),
//     and every record on it is one a current journal declares for that
//     pair;
//   - no other record is live: a removed link keeps no chain, and every
//     record no journal declares is on the free list;
//   - the refcounts equal a recount of the references the journals'
//     entries and pending items hold.
func (e *core) verifyLedger() error {
	owner := make(map[int32]uint64) // live record -> the pair it declares
	for _, f := range e.files {
		for _, en := range f.j.ents {
			if en.kind != jDecl {
				continue
			}
			r := int32(en.x)
			if r <= 0 || int(r) >= len(e.decls) {
				return fmt.Errorf("%s: declaration record %d out of range", f.name, r)
			}
			if _, dup := owner[r]; dup {
				return fmt.Errorf("%s: declaration record %d journaled twice", f.name, r)
			}
			if e.decls[r].file != f.id {
				return fmt.Errorf("%s: declaration record %d belongs to file id %d, not %d", f.name, r, e.decls[r].file, f.id)
			}
			owner[r] = pairKey(en.a, en.b)
		}
	}
	free := 0
	for r := e.declFree; r != 0; r = e.decls[r].next {
		if _, live := owner[r]; live {
			return fmt.Errorf("journaled declaration record %d is on the free list", r)
		}
		if free++; free >= len(e.decls) {
			return fmt.Errorf("free list of declaration records loops")
		}
	}
	if leaked := len(e.decls) - 1 - free - len(owner); leaked != 0 {
		return fmt.Errorf("%d declaration records neither journaled nor free", leaked)
	}

	var err error
	chained := 0
	for _, n := range e.g.Nodes() {
		n.Links(func(l *graph.Link) bool {
			if l.Flags&(graph.LAlias|graph.LNetMember|graph.LNetEntry) != 0 {
				if l.Decl != 0 {
					err = fmt.Errorf("link %s->%s (flags %#x) has a declaration chain", l.From.Name, l.To.Name, l.Flags)
				}
				return err == nil
			}
			if l.Decl == 0 {
				err = fmt.Errorf("ordinary link %s->%s has no declaration chain", l.From.Name, l.To.Name)
				return false
			}
			key := pairKey(id32(l.From), id32(l.To))
			var w, prev int32
			for r := l.Decl; r != 0; prev, r = r, e.decls[r].next {
				if k, ok := owner[r]; !ok || k != key {
					err = fmt.Errorf("link %s->%s chains record %d, which no journal declares for it", l.From.Name, l.To.Name, r)
					return false
				}
				if prev != 0 && e.declAfter(prev, r) {
					err = fmt.Errorf("link %s->%s: record %d chained after %d, which comes later", l.From.Name, l.To.Name, r, prev)
					return false
				}
				if w == 0 || e.decls[r].cost < e.decls[w].cost {
					w = r
				}
				if chained++; chained > len(owner) {
					err = fmt.Errorf("link %s->%s: declaration chain loops or is shared", l.From.Name, l.To.Name)
					return false
				}
			}
			if d := e.decls[w]; l.Cost != d.cost || l.Op != d.op {
				err = fmt.Errorf("link %s->%s is (%d, %v), its first minimum declaration (%d, %v)",
					l.From.Name, l.To.Name, l.Cost, l.Op, d.cost, d.op)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	if chained != len(owner) {
		return fmt.Errorf("%d journaled declarations, %d on the links' chains", len(owner), chained)
	}
	for l := range e.removedNow {
		if l.Decl != 0 {
			return fmt.Errorf("removed link %s->%s keeps a declaration chain", l.From.Name, l.To.Name)
		}
	}

	want := make([]int32, max(e.g.Len(), len(e.refs)))
	for _, f := range e.files {
		for _, en := range f.j.ents {
			if en.refs > 0 {
				want[en.a]++
			}
			if en.refs > 1 {
				want[en.b]++
			}
		}
		for _, p := range f.j.pendings {
			want[p.from]++
			want[p.to]++
		}
	}
	for id, w := range want {
		var got int32
		if id < len(e.refs) {
			got = e.refs[id]
		}
		if got != w {
			return fmt.Errorf("node %s: refcount %d, journals hold %d references", e.node(int32(id)).Name, got, w)
		}
	}
	return nil
}

// VerifyBackLinks certifies the phases and back links of every vantage
// machine that holds the current generation's labels
// (certify.BackLinks), for the package's tests.
func VerifyBackLinks(m *Multi) error {
	e := m.e
	for h, v := range m.vans {
		if v.mc == nil || v.needFull || v.err != nil || v.graphGen != e.graphGen || v.jgen != e.jgen {
			continue
		}
		if err := certify.BackLinks(v.mc, e.snap, nil); err != nil {
			return fmt.Errorf("vantage %s: %w", h, err)
		}
	}
	return nil
}
