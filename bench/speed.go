package main

import (
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"slices"
	"time"
)

// The machines this benchmark runs on are shared, and their speed drifts
// by a quarter and more over a minute or two as neighbours come and go:
// every instruction, memory access, wake-up and loopback round trip of
// every process gets slower together. A run is shorter than those
// swings, so two runs of the same code can read 30% apart, and a badly
// contended run four times slower. The reference kernel below is a fixed
// piece of work in the benchmark's own code — pointer chasing through an
// array larger than the caches, hashing, sorting, and loopback round
// trips between two goroutines — timed while the system under test is
// idle: just before the daemons start, in pauses the workloads make
// throughout the measurement (between two questions, after an edit has
// landed, between lookup segments or start-up cycles), and just after
// the daemons stop. Slowdowns last seconds, so samples from before and
// after alone can miss one that spans the measurement. The nominal time
// over the median measured time is the machine's speed s during the
// run, and the end-to-end times and rates are reported at s = 1 (raw
// values are in the report).

// refNominal is the reference kernel's typical time on the 2-vCPU Xeon
// the benchmark was calibrated on; a speed of 1 means the machine ran
// at that pace.
const refNominal = 37 * time.Millisecond

// speedExponent is how strongly the workloads follow the kernel. Their
// operations keep two processes busy on two shared CPUs at once — client
// and daemon, or daemon threads — so a contended machine slows them more
// than the single-threaded kernel: between s (one CPU's share) and s²
// (both CPUs' at once). On the ten-seed calibration sets, s^1.5 left the
// smallest worst-case spread (calibration.json).
const speedExponent = 1.5

type refKernel struct {
	next []uint32 // a single random cycle through 8 Mi entries (32 MB)
	buf  []byte
	ints []int
	work []int
}

func newRefKernel() *refKernel {
	r := rand.New(rand.NewSource(1))
	const n = 8 << 20
	k := &refKernel{next: make([]uint32, n), buf: make([]byte, 1<<20), ints: make([]int, 40000)}
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	// Sattolo's shuffle: a uniformly random single cycle.
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i)
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	r.Read(k.buf)
	for i := range k.ints {
		k.ints[i] = r.Int()
	}
	k.work = make([]int, len(k.ints))
	return k
}

// pingPongs is how many loopback round trips one kernel run makes.
const pingPongs = 500

// run does the fixed work once and returns how long it took.
func (k *refKernel) run() (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			_, err = io.Copy(c, c)
			c.Close()
		}
		echoed <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	b := []byte{1}

	t := time.Now()
	p := uint32(0)
	for i := 0; i < 150000; i++ {
		p = k.next[p]
	}
	h := fnv.New64a()
	for i := 0; i < 3; i++ {
		h.Write(k.buf)
	}
	copy(k.work, k.ints)
	slices.Sort(k.work)
	for i := 0; i < pingPongs && err == nil; i++ {
		if _, err = c.Write(b); err == nil {
			_, err = io.ReadFull(c, b)
		}
	}
	d := time.Since(t)

	c.Close()
	if eerr := <-echoed; err == nil {
		err = eerr
	}
	sinkRef = uint64(p) + h.Sum64() + uint64(k.work[0])
	return d, err
}

var sinkRef uint64

// speedProbe collects reference kernel times over a run.
type speedProbe struct {
	k       *refKernel
	samples []float64
	busy    int // pauses whose daemon was still busy after idleWait
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{k: newRefKernel()}
	p.k.run() // fault the pages in
	return p
}

// take times the kernel seven times, before the daemons start or after
// they stop.
func (p *speedProbe) take() error { return p.sample(7) }

// sample times the kernel n times.
func (p *speedProbe) sample(n int) error {
	for i := 0; i < n; i++ {
		d, err := p.k.run()
		if err != nil {
			return err
		}
		p.samples = append(p.samples, float64(d))
	}
	return nil
}

// pause is a pause a workload makes during its measurement so the speed
// follows the machine through the run: it waits until the daemon d has
// gone idle (nil: none is running), times the kernel n times, and
// returns how long the pause took.
func (r *runner) pause(d *proc, n int) (time.Duration, error) {
	t := time.Now()
	if d != nil {
		idle, err := d.awaitIdle()
		if err != nil {
			return 0, err
		}
		if !idle {
			r.speed.busy++
		}
	}
	if err := r.speed.sample(n); err != nil {
		return 0, err
	}
	return time.Since(t), nil
}

// speed is nominal over the median measured kernel time: below 1 on a
// slowed machine.
func (p *speedProbe) speed() float64 {
	return float64(refNominal) / median(p.samples)
}
