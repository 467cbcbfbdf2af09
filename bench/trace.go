package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded around the call by the
// benchmark itself (the program under test carries no span code).
// Parent is the index of the enclosing span, -1 at top level; Req groups
// the spans of one operation (a query, an edit, an overlay question).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the timed daemon run and
// the oracle passes call the same code with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 when untraced).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: int32(parent), Req: req})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, req int64, fn func()) {
	i := t.begin(name, parent, req)
	fn()
	t.end(i)
}

// selfTimes returns, per span name, the summed self time — each span's
// duration minus the part of it its children cover — and the number of
// spans.
func (t *tracer) selfTimes() map[string]spanTotal {
	out := make(map[string]spanTotal)
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		tot := out[s.Name]
		tot.n++
		tot.self += time.Duration(s.End - s.Start - child[i])
		tot.total += time.Duration(s.End - s.Start)
		out[s.Name] = tot
	}
	return out
}

type spanTotal struct {
	n           int
	self, total time.Duration
}

// layerSelf sums self time by layer: the span name up to its first dot.
func layerSelf(totals map[string]spanTotal) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for name, tot := range totals {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += tot.self
	}
	return out
}

// sortedNames returns the keys of m in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Start time.Time `json:"start"`
		Spans []span    `json:"spans"`
	}{t.t0, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
