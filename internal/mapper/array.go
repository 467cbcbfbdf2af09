package mapper

import "pathalias/internal/graph"

// This file contains the two extraction strategies behind the mapping loop.
//
// The default is the bucket-queue variant of the paper's sparse-graph
// algorithm (see pqueue.BucketQueue): extraction and decrease-key are O(1)
// amortized for costs on the paper's integer scale. RunArray is the
// textbook Dijkstra the paper compares against — "the standard version of
// Dijkstra's algorithm, which runs in time proportional to v²" —
// extracting the minimum by scanning all queued vertices. Experiment E11
// benchmarks one against the other; a property test requires them to
// produce identical results.

// RunArray maps the graph with the O(v²) baseline extraction strategy.
// Results are identical to Run's; only the running time differs.
func RunArray(g *graph.Graph, source *graph.Node, opts Options) (*Result, error) {
	mc := NewMachine(g, opts)
	mc.mach.useArray = true
	return run(mc, source)
}

// queueLen returns the number of queued labels.
func (m *machine) queueLen() int {
	if m.useArray {
		return len(m.scanQueue)
	}
	return m.queue.Len()
}

// push enqueues a newly queued label.
func (m *machine) push(lb *label) {
	if m.useArray {
		m.scanQueue = append(m.scanQueue, lb)
	} else {
		m.queue.Push(lb)
	}
	if n := m.queueLen(); n > m.res.MaxQueue {
		m.res.MaxQueue = n
	}
}

// popMin extracts the minimum queued label. The array variant scans — the
// v² behavior under test in E11.
func (m *machine) popMin() *label {
	if !m.useArray {
		return m.queue.Pop()
	}
	best := 0
	for i := 1; i < len(m.scanQueue); i++ {
		if labelLess(m.scanQueue[i], m.scanQueue[best]) {
			best = i
		}
	}
	lb := m.scanQueue[best]
	last := len(m.scanQueue) - 1
	m.scanQueue[best] = m.scanQueue[last]
	m.scanQueue = m.scanQueue[:last]
	return lb
}

// fix restores queue order after a label's cost decreased. The array
// variant needs no work (the scan always finds the current minimum); the
// bucket queue moves the label to its new cost bucket, the paper's
// decrease-key.
func (m *machine) fix(lb *label) {
	if !m.useArray {
		m.queue.Fix(int(lb.qb), int(lb.qi))
	}
}
