package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Stage is one timed step of a re-map generation.
type Stage struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"dur_ns"`
	Note string        `json:"note,omitempty"`
}

// Trace is the structured record of one re-map generation: where the
// wall time went, stage by stage, plus the shape of the change. The
// stage durations sum to Wall exactly — the assembler closes the gap
// with an explicit "other" stage rather than letting unaccounted time
// hide between stages.
type Trace struct {
	Seq   uint64        `json:"seq"` // ring sequence number, 1-based
	Gen   uint64        `json:"gen"` // route generation that landed
	Start time.Time     `json:"start"`
	Wall  time.Duration `json:"wall_ns"`

	// Path is how the engine brought the graph to the new input set:
	// "incremental" (journal patch), "rebuild" (full journal rebuild),
	// or "plain" (error-fallback merge).
	Path string `json:"path"`

	Warm         int  `json:"warm_remaps"`     // vantage re-maps that took the warm path
	Full         int  `json:"full_remaps"`     // vantage re-maps from scratch
	Nodes        int  `json:"nodes"`           // graph size after the update
	NodesTouched int  `json:"nodes_touched"`   // nodes the journal patch touched
	LinksTouched int  `json:"links_touched"`   // link events in the change set
	Replayed     int  `json:"stmts_replayed"`  // statements the patch applied plus undid
	Rescanned    int  `json:"files_rescanned"` // inputs re-parsed
	Routes       int  `json:"routes"`          // default vantage's served routes
	Published    bool `json:"published"`       // a new rdb image was written

	// LabelsChanged sums, over the re-mapped vantages, the labels whose
	// value changed (a full re-map counts every labeled node);
	// StoresUnchanged counts resident stores kept as they were because
	// their vantage's routes did not move.
	LabelsChanged   int `json:"labels_changed"`
	StoresUnchanged int `json:"stores_unchanged"`

	Stages []Stage `json:"stages"`
}

// SumStages returns the sum of the stage durations.
func (t *Trace) SumStages() time.Duration {
	var sum time.Duration
	for _, s := range t.Stages {
		sum += s.Dur
	}
	return sum
}

// Line renders the trace as one line for the `trace` protocol command:
//
//	gen=7 path=incremental wall=1.8ms scan=0.3ms patch=0.2ms ... nodes=5019 touched=3 links=2 stmts_replayed=2 ... stores_unchanged=2
func (t *Trace) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gen=%d path=%s wall=%s", t.Gen, t.Path, fmtDur(t.Wall))
	for _, s := range t.Stages {
		fmt.Fprintf(&b, " %s=%s", s.Name, fmtDur(s.Dur))
	}
	fmt.Fprintf(&b, " warm=%d full=%d nodes=%d touched=%d links=%d stmts_replayed=%d rescanned=%d routes=%d published=%v labels_changed=%d stores_unchanged=%d",
		t.Warm, t.Full, t.Nodes, t.NodesTouched, t.LinksTouched, t.Replayed, t.Rescanned, t.Routes, t.Published,
		t.LabelsChanged, t.StoresUnchanged)
	return b.String()
}

// fmtDur renders a duration compactly at microsecond resolution —
// stage times range from microseconds to seconds, and nanosecond
// digits are noise at line-protocol granularity.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// TraceRing retains the most recent N generation traces. All methods
// are safe for concurrent use; the producer (the re-map loop) is
// single-threaded, readers are arbitrary.
type TraceRing struct {
	mu   sync.Mutex
	buf  []*Trace
	next uint64 // total traces ever added; buf[(next-1)%len] is newest
}

// NewTraceRing returns a ring retaining n traces (min 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]*Trace, n)}
}

// Add stores t as the newest trace and assigns its Seq.
func (r *TraceRing) Add(t *Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	t.Seq = r.next
	r.buf[(r.next-1)%uint64(len(r.buf))] = t
}

// Last returns the newest trace, nil before any.
func (r *TraceRing) Last() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next == 0 {
		return nil
	}
	return r.buf[(r.next-1)%uint64(len(r.buf))]
}

// Recent returns up to n retained traces, newest first.
func (r *TraceRing) Recent(n int) []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	avail := int(min(r.next, uint64(len(r.buf))))
	if n <= 0 || n > avail {
		n = avail
	}
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		t := r.buf[(r.next-1-uint64(i))%uint64(len(r.buf))]
		if t == nil {
			break
		}
		out = append(out, t)
	}
	return out
}
