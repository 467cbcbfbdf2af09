package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// tailPermille are the candidate tail percentiles in tenths of a
// percent, highest first.
var tailPermille = []int{999, 990, 950, 900, 750}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten samples beyond it, or 0 when n is too small for any: a tail
// read from fewer samples than that is one unlucky request, not a tail.
func tailPercentile(n int) float64 {
	for _, t := range tailPermille {
		if n*(1000-t)/1000 >= 10 {
			return float64(t) / 10
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// median returns the median of xs (the mean of the middle two for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// dist summarizes one sample of durations in a unit: the median and the
// highest tail percentile the sample supports.
type dist struct {
	n        int
	p50      float64
	tailP    float64 // 0 when n supports no tail
	tail     float64
	min, max float64
}

// tailText renders the tail for a report line as "name_pP_unit value",
// or says the sample is too small to have one.
func (d dist) tailText(name, unit string) string {
	if d.tailP == 0 {
		return fmt.Sprintf("%s: no tail from %d samples", name, d.n)
	}
	return fmt.Sprintf("%s_p%g_%s %.2f", name, d.tailP, unit, d.tail)
}

// fmtList renders values for a report line.
func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// summarize returns the distribution of xs.
func summarize(xs []float64) dist {
	s := sortedCopy(xs)
	d := dist{n: len(s), p50: median(s), tailP: tailPercentile(len(s))}
	if len(s) > 0 {
		d.min, d.max = s[0], s[len(s)-1]
	}
	if d.tailP > 0 {
		d.tail = percentile(s, d.tailP)
	}
	return d
}

// hist is a log-linear latency histogram in nanoseconds with 1/512
// relative resolution: exact below 1024 ns, then 512 buckets per power
// of two. It keeps the lookup workload's tens of millions of samples in
// a few hundred kilobytes.
type hist struct {
	counts []uint64
	n      uint64
}

const histSub = 10 // 1<<histSub linear buckets per power of two

func histBucket(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < 1<<histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSub // ≥ 1; v>>e is in [512, 1024)
	return e<<(histSub-1) + int(v>>uint(e))
}

func histValue(b int) int64 {
	if b < 1<<histSub {
		return int64(b)
	}
	e := b>>(histSub-1) - 1
	m := uint64(b - e<<(histSub-1))
	return int64(m << uint(e))
}

func (h *hist) add(d time.Duration) {
	b := histBucket(int64(d))
	if b >= len(h.counts) {
		grown := make([]uint64, b+1+b/4)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b]++
	h.n++
}

// quantile returns the nearest-rank p-th percentile as the lower bound
// of its bucket.
func (h *hist) quantile(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			return time.Duration(histValue(b))
		}
	}
	return time.Duration(histValue(len(h.counts) - 1))
}

// dist summarizes the histogram in unit-sized values (unit = 1µs gives
// microseconds).
func (h *hist) dist(unit time.Duration) dist {
	d := dist{n: int(h.n), tailP: tailPercentile(int(h.n))}
	d.p50 = float64(h.quantile(50)) / float64(unit)
	if d.tailP > 0 {
		d.tail = float64(h.quantile(d.tailP)) / float64(unit)
	}
	d.min = float64(h.quantile(0)) / float64(unit)
	d.max = float64(h.quantile(100)) / float64(unit)
	return d
}
