package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// The shared host's speed drifts over tens of seconds to minutes. On the
// 2-vCPU development host one seven-minute loop of the paper trace took
// 2.6–3.6 s per repetition, and whole 30-second runs moved together, so no
// estimator inside a run (per-step median, mean or minimum) removes it.
// Process CPU time tracked wall time to within 2%, so the cause is slower
// instructions (clock speed, cache and memory contention from other
// tenants), not descheduling. Over ten runs of one commit the raw
// throughput of paper spread (interquartile range over median) from 0.04
// in a quiet hour to 0.31 in a busy one, past any bound a regression gate
// can hold.
//
// A fixed reference kernel, timed between the workload's repetitions,
// tracks most of that drift: in the seven-minute loop its time correlated
// 0.92 with the simulator's over 15-second windows, and in the busy hour
// rescaling cut paper's spread from 0.31 to 0.10 and daemon's from 0.14 to
// 0.08. It does not track it exactly: in the same hour faults' spread rose
// from 0.09 to 0.15, and in a quiet hour rescaling adds about 0.01. The
// gated throughput is rescaled to the kernel's nominal speed because that
// bounds the worst case. The kernel is benchmark code and shares no data
// with the program, so a change to the program moves the rescaled figure
// by the same factor as the raw one.

// refNominal is the median time of one kernel pass on the development
// host, in seconds: the rescaled throughput equals the raw one at that
// speed.
const refNominal = 0.02

// A tick takes about 0.1 s. Short passes, each timed on its own, give the
// median many samples of a host state that changes from second to second.
const (
	refSorts  = 12 // sorts in one kernel pass
	refPasses = 5  // passes per tick
)

// refClock times passes of the reference kernel: sorting a 128 KiB slice
// of float64s, which stays in a core's L2 cache and allocates nothing.
type refClock struct {
	src, buf []float64
	times    []float64 // seconds per pass
}

func newRefClock() *refClock {
	r := rand.New(rand.NewSource(1))
	c := &refClock{src: make([]float64, 1<<14), buf: make([]float64, 1<<14)}
	for i := range c.src {
		c.src[i] = r.Float64()
	}
	return c
}

// tick runs and times refPasses passes.
func (c *refClock) tick() {
	for p := 0; p < refPasses; p++ {
		start := time.Now()
		for k := 0; k < refSorts; k++ {
			copy(c.buf, c.src)
			sort.Float64s(c.buf)
		}
		c.times = append(c.times, time.Since(start).Seconds())
	}
}

// scale is the host's slowness during the run relative to nominal: the
// median pass time over refNominal. Raw throughput times scale is the
// throughput at nominal speed.
func (c *refClock) scale() float64 { return median(c.times) / refNominal }

func (c *refClock) String() string {
	return fmt.Sprintf("reference kernel: median %.4f s over %d passes, %.4f× nominal %.3f s", median(c.times), len(c.times), c.scale(), refNominal)
}
